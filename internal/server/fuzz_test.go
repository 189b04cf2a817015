package server

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// FuzzParseSweepBody asserts the sweep body parser's contract on
// arbitrary bytes: it never panics, and any spec it accepts asks for no
// more workers than the server has cores.
func FuzzParseSweepBody(f *testing.F) {
	f.Add("")
	f.Add(`{"k":1,"fail":["links","nodes"],"src":["tor01/host1"],"dst":["10.0.1.0/24"]}`)
	f.Add(`{"workers":1000}`)
	f.Add(`{"fail":["cables"]}`)
	f.Add(`{"dst":["10.0.1.0/33"]}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := http.NewRequest(http.MethodPost, "/snapshots/s/sweep", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := parseSweepBody(req)
		if err == nil && spec.Workers > runtime.GOMAXPROCS(0) {
			t.Fatalf("accepted workers %d > GOMAXPROCS %d", spec.Workers, runtime.GOMAXPROCS(0))
		}
	})
}
