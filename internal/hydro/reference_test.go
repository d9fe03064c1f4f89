package hydro

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Reference hydrology: the container/heap priority-flood and the
// sort-by-elevation flow accumulation that FillDepressions and
// FlowAccumulation replace. The fast versions must match them bit for
// bit.

type refCell struct {
	z    float64
	r, c int
}

type refHeap []refCell

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].z < h[j].z }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refCell)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refFillDepressions(dem *Grid) *Grid {
	const eps = 1e-6
	out := dem.Clone()
	visited := make([]bool, len(dem.Data))
	h := &refHeap{}
	heap.Init(h)
	push := func(r, c int) {
		visited[r*dem.Cols+c] = true
		heap.Push(h, refCell{z: out.At(r, c), r: r, c: c})
	}
	for c := 0; c < dem.Cols; c++ {
		push(0, c)
		if dem.Rows > 1 {
			push(dem.Rows-1, c)
		}
	}
	for r := 1; r < dem.Rows-1; r++ {
		push(r, 0)
		if dem.Cols > 1 {
			push(r, dem.Cols-1)
		}
	}
	for h.Len() > 0 {
		cell := heap.Pop(h).(refCell)
		for i := 0; i < 8; i++ {
			nr, nc := cell.r+d8dr[i], cell.c+d8dc[i]
			if !dem.In(nr, nc) || visited[nr*dem.Cols+nc] {
				continue
			}
			visited[nr*dem.Cols+nc] = true
			z := out.At(nr, nc)
			if z <= cell.z {
				z = cell.z + eps
				out.Set(nr, nc, z)
			}
			heap.Push(h, refCell{z: z, r: nr, c: nc})
		}
	}
	return out
}

func refFlowAccumulation(dem *Grid, dirs *FlowDir) *Grid {
	acc := NewGrid(dem.Rows, dem.Cols, dem.CellSize)
	for i := range acc.Data {
		acc.Data[i] = 1
	}
	order := make([]int, len(dem.Data))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dem.Data[order[a]] > dem.Data[order[b]] })
	for _, idx := range order {
		r, c := idx/dem.Cols, idx%dem.Cols
		d := dirs.At(r, c)
		if d < 0 {
			continue
		}
		nr, nc := r+d8dr[d], c+d8dc[d]
		acc.Add(nr, nc, acc.At(r, c))
	}
	return acc
}

// sameBits reports the first cell where a and b differ bitwise.
func sameBits(a, b *Grid) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.CellSize != b.CellSize {
		return fmt.Errorf("shape %dx%d@%v vs %dx%d@%v", a.Rows, a.Cols, a.CellSize, b.Rows, b.Cols, b.CellSize)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return fmt.Errorf("cell (%d,%d): %v vs %v", i/a.Cols, i%a.Cols, a.Data[i], b.Data[i])
		}
	}
	return nil
}

// diffDEMs is the differential corpus: rough and quantized terrain (ties
// and plateaus), deep interior pits, flats, and degenerate shapes.
func diffDEMs() map[string]*Grid {
	rng := rand.New(rand.NewSource(12))
	out := map[string]*Grid{}
	shapes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {1, 64}, {64, 1}, {2, 2}, {2, 7}, {3, 3}, {17, 23}, {64, 64}, {97, 41}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		rough := tiltedPlane(rows, cols)
		quant := NewGrid(rows, cols, 2)
		pits := tiltedPlane(rows, cols)
		flat := NewGrid(rows, cols, 1)
		for i := range rough.Data {
			rough.Data[i] += rng.Float64() * 3
			quant.Data[i] = float64(rng.Intn(4)) * 0.5
			if rng.Intn(7) == 0 {
				pits.Data[i] -= 5 + float64(rng.Intn(3))
			}
		}
		out[fmt.Sprintf("rough_%dx%d", rows, cols)] = rough
		out[fmt.Sprintf("quantized_%dx%d", rows, cols)] = quant
		out[fmt.Sprintf("pits_%dx%d", rows, cols)] = pits
		out[fmt.Sprintf("flat_%dx%d", rows, cols)] = flat
	}
	return out
}

func TestFillDepressionsMatchesReference(t *testing.T) {
	for name, dem := range diffDEMs() {
		if err := sameBits(FillDepressions(dem), refFillDepressions(dem)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		lim, ref := FillDepressionsLimited(dem, 0.5), dem.Clone()
		filled := refFillDepressions(dem)
		for i := range ref.Data {
			if limit := dem.Data[i] + 0.5; filled.Data[i] <= limit {
				ref.Data[i] = filled.Data[i]
			} else {
				ref.Data[i] = limit
			}
		}
		if err := sameBits(lim, ref); err != nil {
			t.Errorf("%s limited: %v", name, err)
		}
	}
}

func TestFlowAccumulationMatchesReference(t *testing.T) {
	for name, dem := range diffDEMs() {
		// Unfilled (the ConnectivityScore path, with pits and flats) and
		// filled (the watershed-synthesis path).
		for _, g := range []*Grid{dem, FillDepressions(dem)} {
			dirs := D8FlowDirections(g)
			if err := sameBits(FlowAccumulation(g, dirs), refFlowAccumulation(g, dirs)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestConnectivityScoreMatchesReference(t *testing.T) {
	for name, dem := range diffDEMs() {
		for _, thr := range []float64{1, 3, 20} {
			dirs := D8FlowDirections(dem)
			mask := ExtractStreams(refFlowAccumulation(dem, dirs), thr)
			total, connected := 0, 0
			for i, s := range mask {
				if s {
					total++
					if TraceToOutlet(dirs, Point{R: i / dem.Cols, C: i % dem.Cols}) {
						connected++
					}
				}
			}
			want := 0.0
			if total > 0 {
				want = float64(connected) / float64(total)
			}
			if got := ConnectivityScore(dem, thr); got != want {
				t.Errorf("%s thr %v: score %v, reference %v", name, thr, got, want)
			}
		}
	}
}

// TestFloodHeapMatchesContainerHeap drives both heaps through the same
// random push/pop sequence over heavily tied keys and requires the same
// pop order, which is what keeps equal-z fills bit-identical.
func TestFloodHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var fast floodHeap
	ref := &refHeap{}
	for step := 0; step < 20000; step++ {
		if len(fast) == 0 || rng.Intn(3) != 0 {
			z := float64(rng.Intn(6))
			fast.push(floodCell{z: z, i: step})
			heap.Push(ref, refCell{z: z, r: step})
			continue
		}
		got, want := fast.pop(), heap.Pop(ref).(refCell)
		if got.z != want.z || got.i != want.r {
			t.Fatalf("step %d: popped (%v,#%d), container/heap popped (%v,#%d)", step, got.z, got.i, want.z, want.r)
		}
	}
}
