package determinism

import (
	"sort"

	"repro/internal/bdd"
)

// The no-route union bug class: an operation on a shared BDD factory
// inside a map range gives the same Ref in any order, but leaves
// order-dependent intermediate nodes in the factory, so it grows on
// every rebuild of the same answer.
func unionInMapOrder(f *bdd.Factory, sets map[string]bdd.Ref) bdd.Ref {
	u := bdd.False
	for _, s := range sets {
		u = f.Or(u, s) // want `\(\*bdd\.Factory\)\.Or inside map range`
	}
	return u
}

func countInMapOrder(f *bdd.Factory, sets map[int]bdd.Ref) float64 {
	n := 0.0
	for _, s := range sets {
		n += f.SatCount(s) // want `\(\*bdd\.Factory\)\.SatCount inside map range`
	}
	return n
}

// Unioning in sorted key order is the fix; reading a map without calling
// the factory is not flagged.
func unionSortedOK(f *bdd.Factory, sets map[string]bdd.Ref) bdd.Ref {
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	u := bdd.False
	for _, k := range keys {
		u = f.Or(u, sets[k])
	}
	return u
}

func nonEmptyOK(sets map[string]bdd.Ref) int {
	n := 0
	for _, s := range sets {
		if s != bdd.False {
			n++
		}
	}
	return n
}
