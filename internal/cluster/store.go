package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"time"

	"repro/internal/diskcache"
)

// The shared disk cache doubles as the cluster's snapshot manifest
// store. A manifest records a snapshot's full source set under a
// name-derived key; when ownership fails over, the heir loads the
// manifest and reinstalls the snapshot — and because the dead member
// committed its data-plane artifacts to the same cache under
// content-addressed keys, the reinstall re-parses but does not
// re-simulate. Manifests are JSON (map keys marshal sorted, so equal
// snapshots produce equal bytes).

// manifest is the persisted form of one snapshot's sources. Edited
// snapshots persist their flattened source set: the edit chain is lost
// across failover, but analysis over the flattened texts is identical.
type manifest struct {
	Name    string            `json:"name"`
	Configs map[string]string `json:"configs"`
}

// manifestKey derives the cache key for a snapshot's manifest. Unlike
// artifact keys it is name-addressed, not content-addressed; commits are
// atomic temp+rename writes, so concurrent re-loads of the same snapshot
// leave one complete manifest, never a torn one.
func manifestKey(name string) [sha256.Size]byte {
	return sha256.Sum256([]byte("cluster/manifest/" + name))
}

// persistManifest writes the snapshot's manifest to the shared cache.
// Best-effort: a node without a disk tier simply has no failover
// durability (and says so once per load via Logf).
func (n *Node) persistManifest(name string) {
	disk := n.inner.Disk()
	if disk == nil {
		n.cfg.Logf("cluster: no shared cache; snapshot %s will not survive this member", name)
		return
	}
	configs, ok := n.inner.SnapshotSources(name)
	if !ok {
		return
	}
	buf, err := json.Marshal(manifest{Name: name, Configs: configs})
	if err != nil {
		return
	}
	disk.Put(manifestKey(name), buf)
	n.m.manifestPuts.Add(1)
}

// retiredKey derives the cache key of a deleted snapshot's tombstone,
// which tells any other member still holding a copy (an edit runs on the
// owner of its base, whatever its "as" name) that the copy is stale. A
// missing manifest could not: eviction removes manifests too.
func retiredKey(name string) [sha256.Size]byte {
	return sha256.Sum256([]byte("cluster/retired/" + name))
}

// retireManifest removes a deleted snapshot's manifest so failover does
// not resurrect it, and leaves its tombstone.
func (n *Node) retireManifest(name string) {
	if disk := n.inner.Disk(); disk != nil {
		disk.Remove(manifestKey(name))
		disk.Put(retiredKey(name), []byte(name))
	}
}

// unretire clears the tombstone of a name a load or edit is about to
// re-create, first, so no concurrent request takes the new copy for stale.
func (n *Node) unretire(name string) {
	if disk := n.inner.Disk(); name != "" && disk.Exists(retiredKey(name)) {
		disk.Remove(retiredKey(name))
	}
}

// dropRetired discards this member's copy of a name with a tombstone, so
// the request that follows answers as for any deleted snapshot.
func (n *Node) dropRetired(name string) {
	if name != "" && n.inner.HasSnapshot(name) && n.inner.Disk().Exists(retiredKey(name)) {
		n.inner.DropSnapshot(name)
		n.cfg.Logf("cluster: %s dropped its copy of %s, deleted on another member", n.cfg.ID, name)
	}
}

// rehydrate installs a snapshot this node owns but never loaded — the
// failover path. A short lease keyed on the snapshot serializes
// concurrent heirs (two nodes can transiently both believe they own a
// name while a view change propagates); losing the lease race just means
// waiting briefly and retrying the manifest read, since the winner's
// work lands in the same shared cache. Returns whether the snapshot is
// now present.
func (n *Node) rehydrate(ctx context.Context, name string) bool {
	disk := n.inner.Disk()
	if disk == nil {
		return false
	}
	lease, err := disk.AcquireLease("cluster/rehydrate/"+name, n.cfg.ID, n.cfg.FailoverWait)
	if errors.Is(err, diskcache.ErrLeaseHeld) {
		// Another heir is rebuilding right now. Wait one beat; whether or
		// not it finished, fall through and rebuild from the (warm) cache.
		t := time.NewTimer(n.cfg.Heartbeat)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
	}
	buf, ok := disk.Get(manifestKey(name))
	if !ok {
		n.releaseLease(lease, "rehydrate")
		return false
	}
	var m manifest
	if json.Unmarshal(buf, &m) != nil || len(m.Configs) == 0 {
		n.releaseLease(lease, "rehydrate")
		return false
	}
	installErr := n.inner.InstallSnapshot(ctx, name, m.Configs)
	n.releaseLease(lease, "rehydrate")
	if installErr != nil {
		n.cfg.Logf("cluster: rehydrate %s failed: %v", name, installErr)
		return false
	}
	n.m.rehydrations.Add(1)
	n.cfg.Logf("cluster: %s rehydrated inherited snapshot %s from shared cache", n.cfg.ID, name)
	return true
}
