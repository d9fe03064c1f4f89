package hydro

// FlowDir holds D8 flow directions: for each cell, the index 0..7 of the
// steepest-descent neighbor, or -1 for pits and flats with no lower
// neighbor (interior sinks), or -2 for cells that drain off the grid edge.
type FlowDir struct {
	Rows, Cols int
	Dir        []int8
}

// PitDir marks a cell with no downslope neighbor.
const PitDir int8 = -1

// EdgeDir marks a cell that drains off the raster boundary.
const EdgeDir int8 = -2

// At returns the direction at (r, c).
func (f *FlowDir) At(r, c int) int8 { return f.Dir[r*f.Cols+c] }

// Downstream returns the next cell along the flow path and whether the
// path continues (false at pits and edge outflows).
func (f *FlowDir) Downstream(p Point) (Point, bool) {
	d := f.At(p.R, p.C)
	if d < 0 {
		return p, false
	}
	return Point{p.R + d8dr[d], p.C + d8dc[d]}, true
}

// D8FlowDirections computes steepest-descent D8 directions on dem. Border
// cells whose steepest descent leaves the raster are marked EdgeDir.
func D8FlowDirections(dem *Grid) *FlowDir {
	f := &FlowDir{Rows: dem.Rows, Cols: dem.Cols, Dir: make([]int8, dem.Rows*dem.Cols)}
	for r := 0; r < dem.Rows; r++ {
		for c := 0; c < dem.Cols; c++ {
			z := dem.At(r, c)
			best := int8(PitDir)
			bestSlope := 0.0
			offGrid := false
			for i := 0; i < 8; i++ {
				nr, nc := r+d8dr[i], c+d8dc[i]
				if !dem.In(nr, nc) {
					// Flowing off the edge is always possible for border
					// cells; model the outside as infinitely low.
					offGrid = true
					continue
				}
				slope := (z - dem.At(nr, nc)) / dist8(i)
				if slope > bestSlope {
					bestSlope = slope
					best = int8(i)
				}
			}
			if best == PitDir && offGrid {
				best = EdgeDir
			}
			f.Dir[r*f.Cols+c] = best
		}
	}
	return f
}

// FlowAccumulation computes D8 flow accumulation (number of upstream
// cells, inclusive of the cell itself) by a topological walk of the flow
// graph given by dirs: a cell passes its total downstream once every
// donor has passed it theirs. dem supplies only the output's shape and
// cell size; the walk never reads its elevations. Accumulations are
// integer-valued sums, so every topological order gives exactly the same
// grid. Cells on a direction cycle (impossible for D8FlowDirections,
// which only routes strictly downhill) never pass their totals on.
func FlowAccumulation(dem *Grid, dirs *FlowDir) *Grid {
	acc := NewGrid(dem.Rows, dem.Cols, dem.CellSize)
	var off [8]int
	for i := range off {
		off[i] = d8dr[i]*dirs.Cols + d8dc[i]
	}
	// donors counts each cell's unprocessed upstream neighbors (at most 8).
	donors := make([]uint8, len(acc.Data))
	for i, d := range dirs.Dir {
		acc.Data[i] = 1
		if d >= 0 {
			donors[i+off[d]]++
		}
	}
	// Start a downstream chain at every source cell and follow it while
	// each next cell has received all of its donors; a finished chain
	// cell is marked done so the scan does not start it again.
	const done = 0xff
	for i, n := range donors {
		if n != 0 {
			continue
		}
		for j := i; ; {
			donors[j] = done
			d := dirs.Dir[j]
			if d < 0 {
				break
			}
			k := j + off[d]
			acc.Data[k] += acc.Data[j]
			if donors[k]--; donors[k] != 0 {
				break
			}
			j = k
		}
	}
	return acc
}

// floodCell is a priority-queue item for priority-flood filling: the
// cell's elevation, its index in the grid, and its index in the padded
// closed-set frame.
type floodCell struct {
	z    float64
	i, p int
}

// floodHeap is a binary min-heap on z. push and pop sift exactly as
// container/heap does (same comparisons, same child choice), so cells of
// equal z leave in the same order and every filled elevation stays
// bit-identical to the container/heap formulation, without boxing each
// cell into an interface.
type floodHeap []floodCell

func (h *floodHeap) push(x floodCell) {
	*h = append(*h, x)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(x.z < s[i].z) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = x
}

func (h *floodHeap) pop() floodCell {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].z < s[j].z {
			j = j2
		}
		if !(s[j].z < x.z) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
}

// FillDepressions returns a copy of dem with all interior depressions
// raised to their spill elevation (Barnes et al. priority-flood). A tiny
// epsilon gradient keeps filled areas drainable.
func FillDepressions(dem *Grid) *Grid {
	const eps = 1e-6
	out := dem.Clone()
	rows, cols := dem.Rows, dem.Cols
	// closed marks queued cells on a frame padded by one always-closed
	// cell on every side, so neighbor visits need no bounds checks.
	pc := cols + 2
	closed := make([]bool, (rows+2)*pc)
	for c := 0; c < pc; c++ {
		closed[c] = true
		closed[(rows+1)*pc+c] = true
	}
	for r := 1; r <= rows; r++ {
		closed[r*pc] = true
		closed[r*pc+cols+1] = true
	}
	var off, poff [8]int
	for k := range off {
		off[k] = d8dr[k]*cols + d8dc[k]
		poff[k] = d8dr[k]*pc + d8dc[k]
	}
	h := make(floodHeap, 0, 4*(rows+cols))
	push := func(r, c int) {
		i, p := r*cols+c, (r+1)*pc+c+1
		closed[p] = true
		h.push(floodCell{z: out.Data[i], i: i, p: p})
	}
	for c := 0; c < cols; c++ {
		push(0, c)
		if rows > 1 {
			push(rows-1, c)
		}
	}
	for r := 1; r < rows-1; r++ {
		push(r, 0)
		if cols > 1 {
			push(r, cols-1)
		}
	}
	for len(h) > 0 {
		cell := h.pop()
		for k := 0; k < 8; k++ {
			p := cell.p + poff[k]
			if closed[p] {
				continue
			}
			closed[p] = true
			i := cell.i + off[k]
			z := out.Data[i]
			if z <= cell.z {
				z = cell.z + eps
				out.Data[i] = z
			}
			h.push(floodCell{z: z, i: i, p: p})
		}
	}
	return out
}

// FillDepressionsLimited fills depressions only up to maxDepth of fill:
// shallow natural micro-depressions (interpolation noise) drain, while
// deep ponds — such as those impounded behind road embankments — remain.
// This is the preprocessing hydrologists apply before diagnosing digital
// dams: without it every pixel-scale pit looks like a dam.
func FillDepressionsLimited(dem *Grid, maxDepth float64) *Grid {
	filled := FillDepressions(dem)
	out := dem.Clone()
	for i := range out.Data {
		limit := dem.Data[i] + maxDepth
		if filled.Data[i] <= limit {
			out.Data[i] = filled.Data[i]
		} else {
			out.Data[i] = limit
		}
	}
	return out
}

// ExtractStreams returns the boolean stream mask: cells whose accumulation
// meets the threshold.
func ExtractStreams(acc *Grid, threshold float64) []bool {
	mask := make([]bool, len(acc.Data))
	for i, v := range acc.Data {
		mask[i] = v >= threshold
	}
	return mask
}

// TraceToOutlet follows the D8 path from p until it exits the raster
// (true) or terminates in a pit (false), with a step bound for safety.
func TraceToOutlet(dirs *FlowDir, p Point) bool {
	maxSteps := dirs.Rows * dirs.Cols
	for step := 0; step < maxSteps; step++ {
		d := dirs.At(p.R, p.C)
		if d == EdgeDir {
			return true
		}
		if d == PitDir {
			return false
		}
		p = Point{p.R + d8dr[d], p.C + d8dc[d]}
	}
	return false
}

// ConnectivityScore returns the fraction of stream cells whose flow path
// reaches the raster boundary. Digital dams strand stream cells in pits
// behind embankments, lowering the score; breaching restores it.
func ConnectivityScore(dem *Grid, streamThreshold float64) float64 {
	dirs := D8FlowDirections(dem)
	acc := FlowAccumulation(dem, dirs)
	mask := ExtractStreams(acc, streamThreshold)
	total, connected := 0, 0
	for i, isStream := range mask {
		if !isStream {
			continue
		}
		total++
		if TraceToOutlet(dirs, Point{R: i / dem.Cols, C: i % dem.Cols}) {
			connected++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(connected) / float64(total)
}

// CountPits returns the number of interior sink cells.
func CountPits(dem *Grid) int {
	dirs := D8FlowDirections(dem)
	n := 0
	for _, d := range dirs.Dir {
		if d == PitDir {
			n++
		}
	}
	return n
}
