package engine

import (
	"testing"

	"ssync/internal/sim"
)

// FuzzDecodeResult drives arbitrary bytes through the result blob
// decoder the disk tier uses. Decoding either fails, or yields a result
// that sim.Run scores without a panic, as a served disk hit would be.
// Seeds are the encodings of compiled BV_12 and QFT_12.
func FuzzDecodeResult(f *testing.F) {
	topo := testRequest(f, "BV_12", "S-4", 8, "").Topo
	for _, bench := range []string{"BV_12", "QFT_12"} {
		req := testRequest(f, bench, "S-4", 8, CompilerSSync)
		res, err := Direct(req)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := encodeResult(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		res, err := decodeResult(blob, topo)
		if err != nil {
			return
		}
		sim.Run(res.Schedule, topo, sim.DefaultOptions())
	})
}
