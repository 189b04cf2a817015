// Named leases over the shared cache directory. A lease is advisory
// mutual exclusion between processes sharing one cache dir — the cluster
// uses it so exactly one member rehydrates a snapshot at a time, and to
// elect its coordinator. Leases carry an owner and an expiry: a holder that
// crashes simply stops renewing, and the lease becomes a crash orphan
// that the next Acquire (or the next Open's recovery scan) reclaims.
//
// Lease files live under leases/ at the cache root, named by the
// hex-encoded lease name, written with temp + atomic rename under the
// exclusive directory flock so two processes can never both conclude
// they won the same lease.
package diskcache

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	leasesDir   = "leases"
	leaseSuffix = ".lease"
)

// ErrLeaseHeld is returned by AcquireLease when another live owner holds
// the lease; the caller should back off and retry or defer to the holder.
var ErrLeaseHeld = errors.New("diskcache: lease held by another owner")

// ErrLeaseLost is returned by Renew when the lease expired and another
// owner reclaimed it; the holder must stop relying on its exclusion.
var ErrLeaseLost = errors.New("diskcache: lease lost")

// Lease is a held named lease. Release or let it expire.
type Lease struct {
	c     *Cache
	name  string
	owner string
}

// leaseRecord is the on-disk lease file payload.
type leaseRecord struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_nano"`
}

func (c *Cache) leasePath(name string) string {
	return filepath.Join(c.dir, leasesDir, hex.EncodeToString([]byte(name))+leaseSuffix)
}

// readLease parses a lease file; any read or decode failure reports the
// lease as absent (a torn lease file is an orphan, not a holder).
func readLease(path string) (leaseRecord, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return leaseRecord{}, false
	}
	var rec leaseRecord
	if json.Unmarshal(b, &rec) != nil || rec.Owner == "" {
		return leaseRecord{}, false
	}
	return rec, true
}

// writeLease commits a lease record with temp + atomic rename. The caller
// holds the exclusive directory flock.
func writeLease(path string, rec leaseRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return writeAtomic(path, b)
}

// AcquireLease takes the named lease for owner with the given ttl. It
// returns ErrLeaseHeld while another owner's unexpired lease exists; an
// expired or unreadable lease file is a crash orphan and is reclaimed.
// Re-acquiring a lease the same owner already holds refreshes its expiry.
func (c *Cache) AcquireLease(name, owner string, ttl time.Duration) (*Lease, error) {
	if c == nil {
		return nil, errors.New("diskcache: no cache")
	}
	if owner == "" || name == "" {
		return nil, fmt.Errorf("diskcache: lease needs a name and an owner")
	}
	unlock := c.flockExclusive()
	defer unlock()
	path := c.leasePath(name)
	now := c.now()
	if rec, ok := readLease(path); ok && rec.Owner != owner {
		if now.UnixNano() < rec.Expires {
			c.mu.Lock()
			c.stats.LeasesContended++
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %s until %s", ErrLeaseHeld, rec.Owner,
				time.Unix(0, rec.Expires).UTC().Format(time.RFC3339))
		}
		c.mu.Lock()
		c.stats.LeaseOrphans++
		c.mu.Unlock()
	}
	rec := leaseRecord{Owner: owner, Expires: now.Add(ttl).UnixNano()}
	if err := writeLease(path, rec); err != nil {
		return nil, fmt.Errorf("diskcache: lease write: %w", err)
	}
	c.mu.Lock()
	c.stats.LeasesAcquired++
	c.mu.Unlock()
	return &Lease{c: c, name: name, owner: owner}, nil
}

// Renew extends the lease's expiry, failing with ErrLeaseLost if the
// lease expired and another owner reclaimed it in the meantime.
func (l *Lease) Renew(ttl time.Duration) error {
	unlock := l.c.flockExclusive()
	defer unlock()
	path := l.c.leasePath(l.name)
	if rec, ok := readLease(path); ok && rec.Owner != l.owner && l.c.now().UnixNano() < rec.Expires {
		return fmt.Errorf("%w: now held by %s", ErrLeaseLost, rec.Owner)
	} else if ok && rec.Owner != l.owner {
		return fmt.Errorf("%w: expired and reclaimed by %s", ErrLeaseLost, rec.Owner)
	}
	return writeLease(path, leaseRecord{Owner: l.owner, Expires: l.c.now().Add(ttl).UnixNano()})
}

// Release drops the lease if this owner still holds it. Releasing a lost
// or expired-and-stolen lease is a no-op — never remove another owner's
// grant. A removal failure is returned rather than swallowed: the lease
// file then survives until its expiry, and every future acquirer of the
// name waits out a TTL that nobody is using, so callers should at least
// log it.
func (l *Lease) Release() error {
	unlock := l.c.flockExclusive()
	defer unlock()
	path := l.c.leasePath(l.name)
	if rec, ok := readLease(path); ok && rec.Owner == l.owner {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("diskcache: lease release: %w", err)
		}
	}
	return nil
}

// recoverLeases sweeps expired and unreadable lease files, and torn lease
// temps, at Open. The caller (Open) holds the exclusive directory flock,
// so a sweep can never race another process's acquire.
func (c *Cache) recoverLeases() {
	dir := filepath.Join(c.dir, leasesDir)
	c.stats.LeaseOrphans += sweepTemps(dir)
	entries, _ := os.ReadDir(dir)
	now := c.now().UnixNano()
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if e.IsDir() || !strings.HasSuffix(e.Name(), leaseSuffix) {
			continue
		}
		if rec, ok := readLease(path); !ok || now >= rec.Expires {
			os.Remove(path)
			c.stats.LeaseOrphans++
		}
	}
}
