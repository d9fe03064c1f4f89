package hydro

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tiltedPlane returns a DEM sloping down toward the east edge.
func tiltedPlane(rows, cols int) *Grid {
	g := NewGrid(rows, cols, 1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.Set(r, c, float64(cols-c))
		}
	}
	return g
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(3, 4, 1)
	g.Set(1, 2, 7)
	if g.At(1, 2) != 7 {
		t.Fatal("At/Set round trip failed")
	}
	g.Add(1, 2, 3)
	if g.At(1, 2) != 10 {
		t.Fatal("Add failed")
	}
	if g.In(3, 0) || g.In(-1, 0) || !g.In(2, 3) {
		t.Fatal("In() wrong")
	}
	c := g.Clone()
	c.Set(0, 0, 99)
	if g.At(0, 0) == 99 {
		t.Fatal("Clone must not alias")
	}
}

func TestNewGridPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(0, 5, 1)
}

func TestD8OnTiltedPlane(t *testing.T) {
	dem := tiltedPlane(5, 10)
	dirs := D8FlowDirections(dem)
	// Interior cells must all flow east (direction 0).
	for r := 1; r < 4; r++ {
		for c := 1; c < 8; c++ {
			if dirs.At(r, c) != 0 {
				t.Fatalf("cell (%d,%d) dir = %d, want 0 (east)", r, c, dirs.At(r, c))
			}
		}
	}
	// East edge drains off the grid.
	if dirs.At(2, 9) != EdgeDir {
		t.Fatalf("east edge dir = %d, want EdgeDir", dirs.At(2, 9))
	}
}

func TestD8PitDetection(t *testing.T) {
	dem := NewGrid(3, 3, 1)
	for i := range dem.Data {
		dem.Data[i] = 10
	}
	dem.Set(1, 1, 1) // central pit
	dirs := D8FlowDirections(dem)
	if dirs.At(1, 1) != PitDir {
		t.Fatalf("central pit dir = %d, want PitDir", dirs.At(1, 1))
	}
	if CountPits(dem) != 1 {
		t.Fatalf("CountPits = %d, want 1", CountPits(dem))
	}
}

func TestFlowAccumulationRow(t *testing.T) {
	// A single row sloping east: accumulation grows 1,2,3,...
	dem := tiltedPlane(1, 6)
	dirs := D8FlowDirections(dem)
	acc := FlowAccumulation(dem, dirs)
	for c := 0; c < 6; c++ {
		if acc.At(0, c) != float64(c+1) {
			t.Fatalf("acc[%d] = %v, want %d", c, acc.At(0, c), c+1)
		}
	}
}

func TestFlowAccumulationConservation(t *testing.T) {
	// On a pit-free DEM, the sum of accumulation flowing off the edges
	// must equal the cell count.
	rng := rand.New(rand.NewSource(3))
	dem := tiltedPlane(20, 20)
	for i := range dem.Data {
		dem.Data[i] += rng.Float64() * 0.1 // tiny roughness, keeps slope dominant
	}
	dirs := D8FlowDirections(dem)
	acc := FlowAccumulation(dem, dirs)
	var out float64
	for r := 0; r < dem.Rows; r++ {
		for c := 0; c < dem.Cols; c++ {
			if dirs.At(r, c) == EdgeDir {
				out += acc.At(r, c)
			}
		}
	}
	if out != float64(dem.Rows*dem.Cols) {
		t.Fatalf("outflow %v, want %d", out, dem.Rows*dem.Cols)
	}
}

func TestFillDepressionsRemovesPits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dem := tiltedPlane(30, 30)
	for i := range dem.Data {
		dem.Data[i] += rng.Float64() * 3 // rough terrain with many pits
	}
	if CountPits(dem) == 0 {
		t.Skip("terrain accidentally pit-free")
	}
	filled := FillDepressions(dem)
	if n := CountPits(filled); n != 0 {
		t.Fatalf("filled DEM still has %d pits", n)
	}
}

func TestFillDepressionsNeverLowers(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		dem := NewGrid(12, 12, 1)
		for i := range dem.Data {
			dem.Data[i] = rng.Float64() * 10
		}
		filled := FillDepressions(dem)
		for i := range dem.Data {
			if filled.Data[i] < dem.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFillDepressionsLimited(t *testing.T) {
	dem := tiltedPlane(9, 9)
	dem.Set(4, 4, dem.At(4, 4)-0.2) // shallow natural pit
	dem.Set(2, 2, dem.At(2, 2)-3.0) // deep dam pond
	limited := FillDepressionsLimited(dem, 0.5)
	dirs := D8FlowDirections(limited)
	if dirs.At(4, 4) == PitDir {
		t.Fatal("shallow pit should be filled away")
	}
	if dirs.At(2, 2) != PitDir {
		t.Fatal("deep pond must survive limited filling")
	}
	// Limited fill never raises a cell above original + maxDepth.
	for i := range dem.Data {
		if limited.Data[i] > dem.Data[i]+0.5+1e-9 {
			t.Fatal("limited fill exceeded maxDepth")
		}
		if limited.Data[i] < dem.Data[i] {
			t.Fatal("fill must never lower")
		}
	}
}

func TestTraceToOutlet(t *testing.T) {
	dem := tiltedPlane(5, 10)
	dirs := D8FlowDirections(dem)
	if !TraceToOutlet(dirs, Point{R: 2, C: 1}) {
		t.Fatal("tilted plane must drain to the edge")
	}
	// Add a pit trap.
	dem2 := tiltedPlane(5, 10)
	for r := 0; r < 5; r++ {
		dem2.Set(r, 5, 100) // wall
	}
	dem2.Set(2, 4, -10) // pit just before the wall
	dirs2 := D8FlowDirections(dem2)
	if TraceToOutlet(dirs2, Point{R: 2, C: 2}) {
		t.Fatal("flow should be trapped by the pit behind the wall")
	}
}

// buildDammedValley creates a sloped valley with a road embankment across
// it: the classic digital-dam scenario.
func buildDammedValley() (*Grid, Point) {
	rows, cols := 40, 60
	dem := NewGrid(rows, cols, 1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Valley: parabolic cross-section draining east.
			dv := float64(r - rows/2)
			dem.Set(r, c, float64(cols-c)*0.5+dv*dv*0.05)
		}
	}
	// North-south road embankment at c=30, 2 m tall.
	for r := 0; r < rows; r++ {
		for _, c := range []int{29, 30, 31} {
			dem.Add(r, c, 4.0)
		}
	}
	return dem, Point{R: rows / 2, C: 30}
}

func TestDigitalDamReducesConnectivity(t *testing.T) {
	dem, _ := buildDammedValley()
	undammed := NewGrid(dem.Rows, dem.Cols, 1)
	for r := 0; r < dem.Rows; r++ {
		for c := 0; c < dem.Cols; c++ {
			dv := float64(r - dem.Rows/2)
			undammed.Set(r, c, float64(dem.Cols-c)*0.5+dv*dv*0.05)
		}
	}
	free := ConnectivityScore(undammed, 20)
	dammed := ConnectivityScore(dem, 20)
	if dammed >= free {
		t.Fatalf("digital dam must reduce connectivity: dammed %v, free %v", dammed, free)
	}
}

func TestBreachRestoresConnectivity(t *testing.T) {
	dem, crossing := buildDammedValley()
	before := ConnectivityScore(dem, 20)
	BreachAt(dem, crossing, 4)
	after := ConnectivityScore(dem, 20)
	if after <= before {
		t.Fatalf("breaching must improve connectivity: before %v, after %v", before, after)
	}
	if after < 0.95 {
		t.Fatalf("connectivity after breach = %v, want ≈1", after)
	}
}

func TestBreachNeverRaises(t *testing.T) {
	dem, crossing := buildDammedValley()
	orig := dem.Clone()
	BreachAt(dem, crossing, 4)
	for i := range dem.Data {
		if dem.Data[i] > orig.Data[i]+1e-12 {
			t.Fatal("breach must only lower elevations")
		}
	}
}

func TestBreachAllMultiplePoints(t *testing.T) {
	dem, crossing := buildDammedValley()
	pts := []Point{crossing, {R: 5, C: 30}, {R: 34, C: 30}}
	BreachAll(dem, pts, 3)
	for _, p := range pts {
		// Breached cells must now be local channels, lower than the
		// remaining embankment beside them.
		side := Point{R: p.R + 4, C: p.C}
		if dem.In(side.R, side.C) && dem.At(p.R, p.C) >= dem.At(side.R, side.C)+4 {
			t.Fatalf("breach at %v did not lower the embankment", p)
		}
	}
}

func TestBreachOutOfBoundsIsNoop(t *testing.T) {
	dem := tiltedPlane(5, 5)
	orig := dem.Clone()
	BreachAt(dem, Point{R: -3, C: 99}, 3)
	for i := range dem.Data {
		if dem.Data[i] != orig.Data[i] {
			t.Fatal("out-of-bounds breach must not modify the DEM")
		}
	}
}

func TestExtractStreams(t *testing.T) {
	acc := NewGrid(2, 2, 1)
	acc.Data = []float64{1, 5, 10, 2}
	mask := ExtractStreams(acc, 5)
	want := []bool{false, true, true, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask[%d] = %v, want %v", i, mask[i], want[i])
		}
	}
}

func TestMinMax(t *testing.T) {
	g := NewGrid(2, 2, 1)
	g.Data = []float64{3, -1, 7, 0}
	lo, hi := g.MinMax()
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestConnectivityScoreEmptyStreams(t *testing.T) {
	dem := tiltedPlane(5, 5)
	if s := ConnectivityScore(dem, math.Inf(1)); s != 0 {
		t.Fatalf("no streams → score 0, got %v", s)
	}
}

// benchDEM is a rough 1024² tilted plane, pitted like the synthetic
// watersheds the terrain generator fills and routes.
func benchDEM() *Grid {
	rng := rand.New(rand.NewSource(2))
	dem := tiltedPlane(1024, 1024)
	for i := range dem.Data {
		dem.Data[i] += rng.Float64() * 2
	}
	return dem
}

// benchSink keeps benchmarked results live.
var benchSink *Grid

func BenchmarkFillDepressions(b *testing.B) {
	dem := benchDEM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = FillDepressions(dem)
	}
}

func BenchmarkFlowAccumulation(b *testing.B) {
	filled := FillDepressions(benchDEM())
	dirs := D8FlowDirections(filled)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = FlowAccumulation(filled, dirs)
	}
}
