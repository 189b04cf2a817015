package dataplane

const (
	fnvFPOffset uint64 = 14695981039346656037
	fnvFPPrime  uint64 = 1099511628211
)

type fpHash struct{ h uint64 }

func (f *fpHash) mix(x uint64) {
	f.h ^= x
	f.h *= fnvFPPrime
}

func (f *fpHash) mixStr(s string) {
	for i := 0; i < len(s); i++ {
		f.mix(uint64(s[i]))
	}
	f.mix(0xff) // terminator so "ab","c" != "a","bc"
}

// NodeFingerprint returns a deterministic hash of one device's computed
// control- and forwarding-plane state: every VRF's per-protocol RIB state
// plus the resolved FIB entries, in sorted VRF order. Unknown devices hash
// to a fixed value, so two data planes agree on a device exactly when its
// state is identical. Fingerprint folds these per-node hashes into one.
func (r *Result) NodeFingerprint(name string) uint64 {
	f := fpHash{h: fnvFPOffset}
	ns := r.Nodes[name]
	if ns == nil {
		return f.h
	}
	f.mixStr(name)
	for _, vn := range sortedVRFNames(ns) {
		vs := ns.VRFs[vn]
		f.mixStr(vn)
		f.mix(vs.ConnRIB.StateHash())
		f.mix(vs.StatRIB.StateHash())
		f.mix(vs.OSPFRIB.StateHash())
		f.mix(vs.BGPRIB.StateHash())
		f.mix(vs.Main.StateHash())
		if vs.FIB == nil {
			continue
		}
		for _, ent := range vs.FIB.Entries() {
			f.mix(uint64(ent.Prefix.Addr)<<8 | uint64(ent.Prefix.Len))
			for _, nh := range ent.NextHops {
				f.mixStr(nh.Iface)
				f.mixStr(nh.Node)
				f.mix(uint64(nh.IP))
				if nh.Drop {
					f.mix(1)
				}
			}
		}
	}
	return f.h
}

// Fingerprint returns a deterministic hash of the full computed control-
// and forwarding-plane state: the per-node fingerprints folded in sorted
// device order. Two runs over the same network must produce equal
// fingerprints regardless of Options.Parallelism — logical clocks are
// scheduling artifacts and are excluded (RIB state hashes cover route
// identity only). This is what TestParallelDeterminism compares across
// worker counts.
func (r *Result) Fingerprint() uint64 {
	f := fpHash{h: fnvFPOffset}
	for _, name := range r.Network.DeviceNames() {
		if r.Nodes[name] == nil {
			continue
		}
		f.mix(r.NodeFingerprint(name))
	}
	return f.h
}
