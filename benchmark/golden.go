package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
)

//go:embed goldens.json
var goldensJSON []byte

// goldens holds the expected IEEE-754 bit patterns of every checked
// output, keyed by what produced it (see cubeKey, distKey). A key maps to
// one pattern per checked value: the final origin energy, and for dist
// runs the total energy after it.
//
// strict is the full-length run: every key must be committed. Otherwise
// (the smoke path, whose cycle counts are cut, and -write-goldens) an
// uncommitted key learns its first value and every later one must equal
// it, so backends and reps still check each other.
type goldens struct {
	mu        sync.Mutex
	strict    bool
	committed map[string][]string
	learned   map[string][]string
}

func loadGoldens(strict bool) (*goldens, error) {
	g := &goldens{strict: strict, learned: map[string][]string{}}
	if err := json.Unmarshal(goldensJSON, &g.committed); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

func bitsOf(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = "0x" + strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}

// check reports whether vals match the golden of key, bit for bit.
func (g *goldens) check(key string, vals ...float64) error {
	got := bitsOf(vals)
	g.mu.Lock()
	defer g.mu.Unlock()
	want, ok := g.committed[key]
	if !ok {
		if g.strict {
			return fmt.Errorf("golden %q is not committed (run -write-goldens)", key)
		}
		if want, ok = g.learned[key]; !ok {
			g.learned[key] = got
			return nil
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("golden %q: %d values, want %d", key, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("golden %q value %d: got %s, want %s", key, i, got[i], want[i])
		}
	}
	return nil
}

// write stores the learned keys as the new goldens.json; -write-goldens
// starts from no committed keys, so that is all of them.
func (g *goldens) write(path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	buf, err := json.MarshalIndent(g.learned, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
