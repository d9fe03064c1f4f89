package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkPixelsMatchesEncodingJSON decodes data as a JSON value both into
// Pixels and, reflectively, into []float32, and requires the same
// accept/reject decision and bitwise-equal values.
func checkPixelsMatchesEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	var ref []float32
	refErr := json.Unmarshal(data, &ref)
	var got Pixels
	gotErr := json.Unmarshal(data, &got)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: encoding/json err %v, Pixels err %v", data, refErr, gotErr)
	}
	if refErr != nil {
		return
	}
	if (ref == nil) != (got == nil) || len(ref) != len(got) {
		t.Fatalf("%q: encoding/json %#v, Pixels %#v", data, ref, got)
	}
	for i := range ref {
		if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%q: element %d: encoding/json %v, Pixels %v", data, i, ref[i], got[i])
		}
	}
}

var pixelsSeedCorpus = []string{
	`null`, `[]`, `[ ]`, ` [0.5, 1 ,0]`, "[\n\t1e-3,\r\n-0 ]", `[null]`, `[1,null,2]`,
	`[0.1234567891234567891234]`, `[3.4028235e38]`, `[3.4028236e38]`, `[-3.5e38]`,
	`[1e-46]`, `[1.4e-45]`, `[7e-46]`, `[1E+2, 2e-2, 5E3]`, `[100000000000000000000000000001]`,
	`[1,]`, `[,1]`, `[1,,2]`, `[1 2]`, `["1"]`, `[true]`, `[false]`, `[[1]]`, `[{}]`,
	`[+1]`, `[.5]`, `[5.]`, `[01]`, `[-]`, `[1e]`, `[1e+]`, `[0x10]`, `[inf]`, `[NaN]`,
	`[Infinity]`, `[1_0]`, `[16777217]`, `[0.500000029802323]`, `"abc"`, `5`, `{}`, `true`, `[nul]`, `[nulll]`, `[-0.0]`,
}

func TestPixelsMatchesEncodingJSON(t *testing.T) {
	for _, s := range pixelsSeedCorpus {
		checkPixelsMatchesEncodingJSON(t, []byte(s))
	}
	// Random arrays in every formatting encoding/json can meet:
	// shortest float32 and float64 forms, fixed and exponent notation,
	// integers, edge magnitudes, and occasional non-numbers.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		b.WriteByte('[')
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString([]string{",", ", ", " ,\n"}[rng.Intn(3)])
			}
			v := rng.Float64() * math.Pow(10, float64(rng.Intn(90)-45))
			if rng.Intn(2) == 0 {
				v = -v
			}
			switch rng.Intn(9) {
			case 0:
				fmt.Fprintf(&b, "%v", float32(v))
			case 1:
				fmt.Fprintf(&b, "%v", v)
			case 2:
				fmt.Fprintf(&b, "%.25f", v)
			case 3:
				fmt.Fprintf(&b, "%E", v)
			case 4:
				fmt.Fprintf(&b, "%d", rng.Int63()>>uint(rng.Intn(63)))
			case 5:
				b.WriteString([]string{"3.4028235e38", "3.4028236e38", "1.401298464324817e-45", "7.006492321624085e-46", "-0"}[rng.Intn(5)])
			case 6:
				b.WriteString([]string{"null", `"1"`, "true", "[1]", "1.", "+2"}[rng.Intn(6)])
			default:
				fmt.Fprintf(&b, "%g", float32(rng.Float64()))
			}
		}
		b.WriteByte(']')
		checkPixelsMatchesEncodingJSON(t, []byte(b.String()))
	}
}

// TestParseFloat32MatchesStrconv checks the fast path directly against
// strconv over many tokens, with float32 rounding midpoints and their
// near neighbors written to 6..17 significant digits, where rounding
// through float64 first would differ from rounding once.
func TestParseFloat32MatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	check := func(tok string) {
		want, err := strconv.ParseFloat(tok, 32)
		got, gotErr := parseFloat32([]byte(tok))
		if (err == nil) != (gotErr == nil) || (err == nil && math.Float32bits(got) != math.Float32bits(float32(want))) {
			t.Fatalf("%s: strconv %v (%v), parseFloat32 %v (%v)", tok, float32(want), err, got, gotErr)
		}
	}
	for _, tok := range []string{"16777217", "16777219", "33554434", "16777217.0000001", "16777216.9999999",
		"0.500000029802322", "0.500000029802323", "1e-37", "9.99999e-38", "1e38", "1.00001e38", "0e22", "-0e-22"} {
		check(tok)
	}
	for n := 0; n < 200000; n++ {
		f := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		if rng.Intn(4) == 0 {
			f = rng.Float32() // the pixel range
		}
		v := float64(f)
		switch rng.Intn(3) {
		case 1: // the midpoint above f, exactly
			v += (float64(math.Nextafter32(f, float32(math.Inf(1)))) - v) / 2
		case 2: // within a few float64 ulps of that midpoint
			v += (float64(math.Nextafter32(f, float32(math.Inf(1)))) - v) / 2
			v = math.Float64frombits(math.Float64bits(v) + uint64(rng.Intn(5)) - 2)
		}
		check(strconv.FormatFloat(v, []byte("geE")[rng.Intn(3)], 5+rng.Intn(13), 64))
		check(strconv.FormatFloat(float64(f), 'g', -1, 32))
	}
}

func FuzzPixelsMatchesEncodingJSON(f *testing.F) {
	for _, s := range pixelsSeedCorpus {
		f.Add([]byte(s))
	}
	f.Fuzz(checkPixelsMatchesEncodingJSON)
}

// TestPixelsMarshalsLikeFloat32Slice pins the request bytes clients
// (drainbench included) produce through DetectRequest: Pixels adds no
// MarshalJSON, so the encoding is exactly that of []float32.
func TestPixelsMarshalsLikeFloat32Slice(t *testing.T) {
	px := []float32{0, -0.5, 1, 0.1, 3.4028235e38, 1e-45}
	got, err := json.Marshal(DetectRequest{Bands: 1, Size: 2, Pixels: px})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Bands  int       `json:"bands"`
		Size   int       `json:"size"`
		Pixels []float32 `json:"pixels"`
	}{1, 2, px})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("DetectRequest encodes %s, []float32 encodes %s", got, want)
	}
}

// detectBody is a 4×40×40 /v1/detect body of random [0,1) pixels (about
// 68 KB, the size of a TinyData clip request).
func detectBody(b *testing.B) []byte {
	rng := rand.New(rand.NewSource(1))
	px := make([]float32, 4*40*40)
	for i := range px {
		px[i] = rng.Float32()
	}
	body, err := json.Marshal(DetectRequest{Bands: 4, Size: 40, Pixels: px})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecodeDetect decodes a detect body the way the handler does,
// into DetectRequest ("pixels") and into the reflective []float32 layout
// ("reflect").
func BenchmarkDecodeDetect(b *testing.B) {
	body := detectBody(b)
	b.Run("pixels", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req DetectRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req struct {
				Bands  int       `json:"bands"`
				Size   int       `json:"size"`
				Pixels []float32 `json:"pixels"`
			}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
