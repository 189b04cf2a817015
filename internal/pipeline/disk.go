package pipeline

// Disk-tier integration: a Pipeline configured with a diskcache.Cache
// gains a persistent second tier under the in-memory Store for the two
// stages whose artifacts serialize cleanly — parse (vendor-independent
// device models, gob-encoded) and dataplane (converged simulation
// results, in the columnar format of dataplane.MarshalResult). A
// data-plane artifact carries no network: its key hashes every device
// model, so the decode re-links it to the network the caller parsed for
// that key, and costs a fraction of the simulation it replaces. Lookups
// fall through memory → disk → compute; computes write through to both
// tiers; entries evicted from memory demote to disk via the Store's
// eviction callback instead of vanishing. Graph and analysis artifacts
// are process-local by design (they embed references into the pipeline's
// shared BDD encoder, which is meaningless across processes) and stay
// memory-only; on a warm restart they recompute in-process from the
// disk-tier parse and dataplane hits.
//
// Degraded artifacts carry zero keys and never reach either tier, so a
// crash or fault can never persist a partial answer. Disk corruption is
// the cache's problem, not ours: a failed checksum quarantines the entry
// and reads as a miss, and the stage recomputes.

import (
	"bytes"
	"encoding/gob"

	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/diskcache"
)

// parseArtifact is the gob schema for one parse-stage artifact.
type parseArtifact struct {
	Dev   *config.Device
	Warns []config.Warning
}

func encodeParsed(p parsed) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&parseArtifact{Dev: p.dev, Warns: p.warns})
	return buf.Bytes(), err
}

func decodeParsed(b []byte) (parsed, error) {
	var a parseArtifact
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&a); err != nil {
		return parsed{}, err
	}
	if a.Dev == nil {
		return parsed{}, errNoDevice
	}
	return parsed{dev: a.Dev, warns: a.Warns}, nil
}

type noDeviceError struct{}

func (noDeviceError) Error() string { return "pipeline: parse artifact has no device" }

var errNoDevice = noDeviceError{}

// diskGetParsed reads and decodes a parse artifact from the disk tier,
// promoting it into the memory tier on success. The promoted value wins
// any race with a concurrent compute of the same key via PutIfAbsent.
func (p *Pipeline) diskGetParsed(k Key) (parsed, bool) {
	if p.disk == nil {
		return parsed{}, false
	}
	b, ok := p.disk.Get(k)
	if !ok {
		return parsed{}, false
	}
	art, err := decodeParsed(b)
	if err != nil {
		return parsed{}, false
	}
	v, _ := p.store.PutIfAbsent(k, art)
	return v.(parsed), true
}

// diskPutParsed writes a parse artifact through to the disk tier.
func (p *Pipeline) diskPutParsed(k Key, art parsed) {
	if p.disk == nil || k.IsZero() {
		return
	}
	if b, err := encodeParsed(art); err == nil {
		p.disk.Put(k, b)
	}
}

// diskGetDataPlane reads and decodes a data-plane artifact from the disk
// tier, re-linked to net (the network k was derived from), promoting it
// into the memory tier on success.
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

// demote is the Store eviction callback: artifacts leaving the memory
// tier that have a disk codec are written to the disk tier (unless
// already present), so capacity eviction and memory-pressure purges
// degrade to a slower tier instead of losing work. Unserializable
// artifacts (graphs, analyses) are process-local and simply drop.
func (p *Pipeline) demote(k Key, v any) {
	if p.disk == nil || k.IsZero() || p.disk.Has(k) {
		return
	}
	switch art := v.(type) {
	case parsed:
		p.diskPutParsed(k, art)
	case *dataplane.Result:
		p.diskPutDataPlane(k, art)
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
