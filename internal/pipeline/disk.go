package pipeline

// Disk-tier integration: a Pipeline configured with a diskcache.Cache
// gains a persistent second tier under the in-memory Store for one
// stage, the data plane (converged simulation results, in the columnar
// format of dataplane.MarshalResult). A data-plane artifact carries no
// network: its key hashes every device model, so the decode re-links it
// to the network the caller parsed for that key, and costs a fraction of
// the simulation it replaces. Lookups fall through memory → disk →
// compute, and a compute writes through to both tiers — the only write
// path, so an artifact the memory tier later evicts is still on disk
// unless the disk tier itself evicted it or dropped the write.
//
// Parse artifacts stay memory-only: parsing a device costs less than
// decoding a serialized model of it, so a disk hit would be slower than
// the parse it saves. Graph and analysis artifacts are process-local by
// design (they embed references into the pipeline's shared BDD encoder,
// which is meaningless across processes). On a warm restart the parse
// re-runs, the data plane hits disk, and the graph and analysis
// recompute in-process from it.
//
// Degraded artifacts carry zero keys and never reach either tier, so a
// crash or fault can never persist a partial answer. Disk corruption is
// the cache's problem, not ours: a failed checksum quarantines the entry
// and reads as a miss, and the stage recomputes.

import (
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/diskcache"
)

// diskGetDataPlane reads and decodes a data-plane artifact from the disk
// tier, re-linked to net (the network k was derived from), promoting it
// into the memory tier on success. The promoted value wins any race with
// a concurrent compute of the same key via PutIfAbsent.
func (p *Pipeline) diskGetDataPlane(k Key, net *config.Network) (*dataplane.Result, bool) {
	if p.disk == nil {
		return nil, false
	}
	b, ok := p.disk.Get(k)
	if !ok {
		return nil, false
	}
	res, err := dataplane.UnmarshalResult(b, net)
	if err != nil {
		return nil, false
	}
	v, _ := p.store.PutIfAbsent(k, res)
	return v.(*dataplane.Result), true
}

// diskPutDataPlane writes a clean data-plane artifact through to the
// disk tier (MarshalResult refuses degraded results as a second line of
// defense behind the zero-key gate).
func (p *Pipeline) diskPutDataPlane(k Key, res *dataplane.Result) {
	if p.disk == nil || k.IsZero() {
		return
	}
	if b, err := dataplane.MarshalResult(res); err == nil {
		p.disk.Put(k, b)
	}
}

// DiskStats reports the disk tier's counters (zero when no disk tier is
// configured).
func (p *Pipeline) DiskStats() diskcache.Stats {
	if p == nil || p.disk == nil {
		return diskcache.Stats{}
	}
	return p.disk.Stats()
}
