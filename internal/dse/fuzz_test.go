package dse

import (
	"testing"

	"cimflow/internal/arch"
)

// FuzzDecodeCheckpoint hardens the checkpoint decoder against hostile or
// corrupted resume files: whatever bytes arrive, DecodeCheckpoint must
// return an error or a checkpoint whose encoding round-trips — never
// panic. The corpus is seeded with real checkpoints: an empty one, one
// holding successful and failed points (including the cost_est column) and
// hand-written JSON edge shapes.
func FuzzDecodeCheckpoint(f *testing.F) {
	empty := NewCheckpoint("")
	seed, err := empty.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)

	full := NewCheckpoint("")
	points, err := tinySpec().Expand(arch.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	for i := range points[:2] {
		r := PointResult{Point: points[i], CostEst: 12345.5,
			Metrics: Metrics{Cycles: int64(1000 * (i + 1)), TOPS: 1.5, EnergyMJ: 0.25}}
		full.Record(points[i].Key(), &r)
	}
	fail := PointResult{Point: points[2], Err: errTest("simulate blew up")}
	full.Record(points[2].Key(), &fail)
	seed, err = full.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)

	f.Add([]byte(`{}`))
	f.Add([]byte(`{"done":null}`))
	f.Add([]byte(`{"name":"x","done":{"k":{"label":"l","metrics":{},"cost_est":1e308}}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<20 {
			return
		}
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("DecodeCheckpoint returned no checkpoint and no error")
		}
		// A decoded checkpoint must encode and decode back to the same
		// entry set — the invariant a resumed run relies on.
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("re-encoding decoded checkpoint: %v", err)
		}
		c2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		a, b := c.Entries(), c2.Entries()
		if len(a) != len(b) {
			t.Fatalf("round-trip changed entry count: %d != %d", len(a), len(b))
		}
		for k, v := range a {
			if b[k] != v {
				t.Fatalf("round-trip changed entry %q: %+v != %+v", k, b[k], v)
			}
		}
	})
}

// errTest is a trivial error for seeding failures without fmt.
type errTest string

func (e errTest) Error() string { return string(e) }
