package terrain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"drainnet/internal/hydro"
)

// watershedHashes fingerprints every field Generate produces, bit for bit.
type watershedHashes struct {
	BaseDEM, DEM, Masks, Crossings string
}

func hashGrid(g *hydro.Grid) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range g.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashWatershed(w *Watershed) watershedHashes {
	masks := sha256.New()
	for _, m := range [][]bool{w.RoadMask, w.StreamMask, w.WetMask} {
		buf := make([]byte, len(m))
		for i, v := range m {
			if v {
				buf[i] = 1
			}
		}
		masks.Write(buf)
	}
	cross := sha256.New()
	var b [8]byte
	for _, p := range w.Crossings {
		binary.LittleEndian.PutUint64(b[:], uint64(p.R))
		cross.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(p.C))
		cross.Write(b[:])
	}
	return watershedHashes{
		BaseDEM:   hashGrid(w.BaseDEM),
		DEM:       hashGrid(w.DEM),
		Masks:     hex.EncodeToString(masks.Sum(nil)),
		Crossings: hex.EncodeToString(cross.Sum(nil)),
	}
}

// TestGenerateGolden pins Generate's output per terrain regime at 256²
// to hashes recorded from the container/heap priority-flood and the
// sort-based flow accumulation, so any hydrology rewrite must reproduce
// them bit for bit.
func TestGenerateGolden(t *testing.T) {
	golden := map[string]watershedHashes{
		"default": {
			BaseDEM:   "a0c2a9277f1ae1490950f88204154bf97819492995c331f9b3a2c3a50536e4d0",
			DEM:       "30052358d54bd721eebd2ecb26062fe196b7417792e74db4f03a448e039099b3",
			Masks:     "f656ebd792ee0c2194a2906186947326039104731ed8b690ca11cd0ad54cdd67",
			Crossings: "483519c8da876b7417b88b213d859ae9b59a6ad6c1da381c41258230aef72461",
		},
		RegimeFlatPlain: {
			BaseDEM:   "dbaaa2b151fa58cf496313bd069d4d3070436b67b64ba565dc08abff6b6dac70",
			DEM:       "5de562c6b78bbb4e410af52cf96dd571e5e6b5bd0ebe4ddb86095648dd484ed3",
			Masks:     "97393dc3967381f809d276200cd419174dca4582a835d87d1b53704e83c787e7",
			Crossings: "e1d7f95a8baf7f48deafb0a98981758a4339c54a5af06c4d85dbe43241520a18",
		},
		RegimeIncisedHills: {
			BaseDEM:   "f872b68413537a9944bb4a50b655581889cd2d70e12bf2795eca5fcc6f2d83f1",
			DEM:       "1e833d0642ede7413436145d5adbaeb6829411e56b46ff1ff77cb5e27ebee0af",
			Masks:     "56dc3953b6e156c6523700f45c1f4569efe94138324dd31b43e0996448e4dccf",
			Crossings: "36ada56f1b73d0ddb23be188e0363fea2d9e09cda34ba307238302dbc659ddf3",
		},
	}
	for regime, want := range golden {
		w, err := Generate(Scenario{Regime: regime}.Apply(testConfig()))
		if err != nil {
			t.Fatalf("%s: %v", regime, err)
		}
		if got := hashWatershed(w); got != want {
			t.Errorf("%s: watershed hashes\n got %+v\nwant %+v", regime, got, want)
		}
	}
}
