package routing

// Packed forms of the interned attribute types, for the data-plane
// artifact codec: an ASPath or CommunitySet is a single packed string (4
// big-endian bytes per value), so an artifact stores that string once in
// its string table and the decoder rebuilds the value without a Pool.
// Rebuilt values compare correctly with == (string equality); they are
// not interned into any Pool, which only matters during convergence, and
// persisted (post-convergence) results never re-enter it.

// Packed returns the path's packed form.
func (p ASPath) Packed() string { return p.asns }

// ASPathFromPacked rebuilds a path from its Packed form; ok is false
// unless s is a whole number of 4-byte ASNs.
func ASPathFromPacked(s string) (p ASPath, ok bool) {
	if len(s)%4 != 0 {
		return ASPath{}, false
	}
	return ASPath{asns: s}, true
}

// Packed returns the set's packed form.
func (c CommunitySet) Packed() string { return c.comms }

// CommunitySetFromPacked rebuilds a set from its Packed form; ok is false
// unless s is a whole number of 4-byte communities in strictly ascending
// order (the invariant Has's binary search relies on).
func CommunitySetFromPacked(s string) (c CommunitySet, ok bool) {
	if len(s)%4 != 0 {
		return CommunitySet{}, false
	}
	c = CommunitySet{comms: s}
	for i := 1; i < c.Len(); i++ {
		if c.At(i) <= c.At(i-1) {
			return CommunitySet{}, false
		}
	}
	return c, true
}
