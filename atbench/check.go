package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// goldenJSON holds the committed output digests: workload -> seed ->
// digest. Regenerate entries with -record (see NOTES.md).
//
//go:embed golden.json
var goldenJSON []byte

type goldens map[string]map[string]string

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// lookup returns the committed digest of (workload, seed), if recorded.
func (g goldens) lookup(workload string, seed int64) (string, bool) {
	d, ok := g[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// gate checks every iteration's outputs and counts failures.
type gate struct {
	golden    string // committed digest for this seed ("" if none)
	first     string // digest of the first good iteration
	attempted int
	failed    int
	reasons   []string
}

// check admits one iteration: it fails on an error (a recovered panic
// included), a broken identity, or a digest that differs from the
// golden or from this run's first iteration.
func (g *gate) check(it iteration, err error) bool {
	g.attempted++
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case it.violations > 0:
		reason = fmt.Sprintf("%d counter identity violation(s)", it.violations)
	case g.golden != "" && it.digest != g.golden:
		reason = fmt.Sprintf("digest %s differs from golden %s", it.digest, g.golden)
	case g.first != "" && it.digest != g.first:
		reason = fmt.Sprintf("digest %s differs from this run's first %s", it.digest, g.first)
	}
	if reason != "" {
		g.failed++
		g.reasons = append(g.reasons, reason)
		return false
	}
	g.first = it.digest
	return true
}

// failure counts a set-up or replay step that failed outside an
// iteration.
func (g *gate) failure(err error) {
	g.attempted++
	if err != nil {
		g.failed++
		g.reasons = append(g.reasons, err.Error())
	}
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func jsonString(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// record runs one iteration of w per seed and writes the digests into
// the golden file at path, keeping every other entry.
func record(w workload, seeds []int64, path string) error {
	g := goldens{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if g[w.name] == nil {
		g[w.name] = map[string]string{}
	}
	for _, seed := range seeds {
		it, err := runIteration(w, seed, nil, -1)
		if err != nil {
			return err
		}
		if it.violations > 0 {
			return fmt.Errorf("seed %d: %d identity violation(s)", seed, it.violations)
		}
		g[w.name][strconv.FormatInt(seed, 10)] = it.digest
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
