// Golden corpus for the err-drop check: discarded errors from the
// must-check list — diskcache lease operations, gob encoding, and
// non-deferred http response Body.Close. The check has no package
// scope; the synthetic import path only has to be unique.
package errdrop

import (
	"encoding/gob"
	"net/http"
	"time"

	"repro/internal/diskcache"
)

func use(v any) {}

// Statement-form discard of a lease release: the lease file survives
// its holder and every future acquirer waits out the unused TTL.
func dropRelease(l *diskcache.Lease) {
	l.Release() // want `error from diskcache\.Lease\.Release discarded \(must-check: this failure corrupts coordination or artifact state\)`
}

// Blank-assignment discard: every error position is _.
func dropEncode(enc *gob.Encoder, v any) {
	_ = enc.Encode(v) // want `error from gob\.Encoder\.Encode discarded`
}

// The acquire error decides whether the lease exists at all.
func dropAcquire(c *diskcache.Cache) {
	lease, _ := c.AcquireLease("corpus", "me", time.Second) // want `error from diskcache\.Cache\.AcquireLease discarded`
	use(lease)
}

// go-statement discard: the spawned call's error has nowhere to go.
func dropRenewInGoroutine(l *diskcache.Lease) {
	go l.Renew(time.Second) // want `error from diskcache\.Lease\.Renew discarded`
}

// Body.Close on the write path is dynamic dispatch (io.Closer), so it
// is matched structurally, not through the call graph.
func dropBodyClose(resp *http.Response) {
	resp.Body.Close() // want `error from \(net/http\.Response\)\.Body\.Close discarded`
}

// Deferred closes are the established read-path idiom and a deferred
// call could not return its error anyway: exempt.
func deferredCloseOK(resp *http.Response) error {
	defer resp.Body.Close()
	var v int
	return gob.NewDecoder(resp.Body).Decode(&v)
}

// Checked errors are the point: no finding.
func checkedReleaseOK(l *diskcache.Lease) error {
	if err := l.Release(); err != nil {
		return err
	}
	return nil
}

func boundEncodeOK(enc *gob.Encoder, v any) error {
	err := enc.Encode(v)
	return err
}

func suppressedRelease(l *diskcache.Lease) {
	//gblint:ignore err-drop corpus: shutdown path, the lease dies with the process anyway
	l.Release()
}
