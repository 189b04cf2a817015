package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"time"

	"repro/internal/diskcache"
)

// The shared disk cache doubles as the cluster's snapshot store, under one
// rule: name-addressed data goes in pinned records, content-addressed data
// in LRU entries. A snapshot's manifest — its full source set as JSON (map
// keys marshal sorted; an edited snapshot persists its flattened sources,
// which analyze identically) — is an LRU entry keyed by its SHA-256, which
// the snapshot's name record holds. Members check their copies against
// the record before serving (sync); a failover heir rebuilds from the
// manifest, warm from the dead member's data-plane artifacts in the same
// cache. Manifests stay evictable: a snapshot whose manifest was evicted
// does not survive its owner.
type manifest struct {
	Configs map[string]string `json:"configs"`
}

// nameRecord is the pinned record naming a snapshot's current manifest:
// its 32-byte SHA-256.
func nameRecord(name string) string { return "cluster/snapshot/" + name }

// parseNameRecord decodes a name record's digest.
func parseNameRecord(b []byte) (digest [sha256.Size]byte, ok bool) {
	if len(b) != sha256.Size {
		return digest, false
	}
	return [sha256.Size]byte(b), true
}

// decodeManifest is the trust boundary between shared-cache bytes and an
// installed snapshot: it accepts only bytes that hash to the name
// record's digest and carry at least one config.
func decodeManifest(digest [sha256.Size]byte, buf []byte) (map[string]string, error) {
	var m manifest
	if sha256.Sum256(buf) != digest {
		return nil, errors.New("manifest missing or not the one its name record names")
	} else if err := json.Unmarshal(buf, &m); err != nil {
		return nil, err
	} else if len(m.Configs) == 0 {
		return nil, errors.New("manifest has no configs")
	}
	return m.Configs, nil
}

// publish makes this member's copy of name what the name means: it writes
// the copy's manifest, then the name record, and remembers the digest.
func (n *Node) publish(name string) {
	disk := n.inner.Disk()
	if disk == nil {
		n.cfg.Logf("cluster: no shared cache; snapshot %s will not survive this member", name)
		return
	}
	configs, ok := n.inner.SnapshotSources(name)
	if !ok {
		return
	}
	buf, err := json.Marshal(manifest{Configs: configs})
	digest := sha256.Sum256(buf)
	if err == nil {
		disk.Put(digest, buf)
		err = disk.WriteRecord(nameRecord(name), digest[:])
	}
	if err != nil {
		n.cfg.Logf("cluster: %s publishing %s: %v", n.cfg.ID, name, err)
		return
	}
	n.m.manifestPuts.Add(1)
	n.copies.Store(name, digest)
}

// sync brings this member's copy of name in line with its name record
// before a request reads it. A copy whose digest matches serves as is; a
// missing or stale one is (re)installed from the manifest the record
// names; with no record the name is deleted, so a copy this node recorded
// is dropped (one it never recorded is a load or edit still publishing).
// Without a disk tier a member's copies are the only ones.
func (n *Node) sync(ctx context.Context, name string) {
	disk := n.inner.Disk()
	if disk == nil || name == "" {
		return
	}
	b, _ := disk.Record(nameRecord(name))
	digest, ok := parseNameRecord(b)
	have, held := n.copies.Load(name)
	if ok && (have == digest || n.rehydrate(ctx, name, digest)) || !held {
		return
	}
	n.inner.DropSnapshot(name)
	n.copies.Delete(name)
	n.cfg.Logf("cluster: %s dropped its copy of %s, which its name record no longer backs", n.cfg.ID, name)
}

// rehydrate installs the snapshot the name record's digest names: the
// failover path, and how a stale copy catches up with a load or edit on
// another member. A short lease keyed on the snapshot serializes
// installers on different members (two can transiently both believe they
// own a name while a view change propagates); the loser waits one beat,
// so the winner's artifacts land in the shared cache first. Returns
// whether the snapshot is now installed.
func (n *Node) rehydrate(ctx context.Context, name string, digest [sha256.Size]byte) bool {
	disk := n.inner.Disk()
	lease, err := disk.AcquireLease("cluster/rehydrate/"+name, n.cfg.ID, n.cfg.FailoverWait)
	defer n.releaseLease(lease, "rehydrate")
	if errors.Is(err, diskcache.ErrLeaseHeld) {
		t := time.NewTimer(n.cfg.Heartbeat)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
	}
	buf, _ := disk.Get(digest)
	configs, err := decodeManifest(digest, buf)
	if err == nil {
		err = n.inner.InstallSnapshot(ctx, name, configs)
	}
	if err != nil {
		n.cfg.Logf("cluster: rehydrate %s failed: %v", name, err)
		return false
	}
	n.copies.Store(name, digest)
	n.m.rehydrations.Add(1)
	n.cfg.Logf("cluster: %s rehydrated %s from shared cache", n.cfg.ID, name)
	return true
}
