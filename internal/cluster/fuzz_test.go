package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// FuzzManifest fuzzes the trust boundary rehydrate crosses: a name record
// and the manifest bytes it names, both read from the shared cache that
// every member (and anything else with the directory) can write. Decoding
// must never panic, and must accept only manifests whose SHA-256 is the
// record's digest and that carry at least one config.
func FuzzManifest(f *testing.F) {
	good := []byte(`{"configs":{"r1":"hostname r1\nend\n"}}`)
	empty := []byte(`{"configs":{}}`)
	record := func(b []byte) []byte {
		sum := sha256.Sum256(b)
		return []byte(hex.EncodeToString(sum[:]))
	}
	f.Add(record(good), good)
	f.Add(record(empty), empty)
	f.Add(record(good), good[:len(good)-1])
	f.Add(record(good)[:10], good)
	f.Add([]byte("zz"+string(record(good)[2:])), good)
	f.Fuzz(func(t *testing.T, rec, buf []byte) {
		digest, ok := parseNameRecord(rec)
		if !ok {
			return
		}
		configs, err := decodeManifest(digest, buf)
		if err != nil {
			return
		}
		if sha256.Sum256(buf) != digest {
			t.Fatalf("accepted a manifest that is not the one record %q names", rec)
		}
		if len(configs) == 0 {
			t.Fatalf("accepted a manifest without configs: %q", buf)
		}
	})
}
