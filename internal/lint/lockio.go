package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockIO enforces the lock-discipline invariant distilled from the
// PR-4 diskcache incident: disk latency must never serialize lock
// holders. It flags, while a sync.Mutex or sync.RWMutex is held:
//
//   - file I/O (os.*, io.*), network operations (net.*, net/http.*,
//     os/exec.*), and method calls on os/net objects (*os.File,
//     net.Conn, ...) made directly in the body;
//   - channel sends;
//   - calls to module functions whose call-graph summary
//     (transitively) reaches such I/O — `mu.Lock(); c.flush()` where
//     flush writes a file. The message carries the witness chain down
//     to the I/O operation so the reader does not have to re-derive it.
//
// Direct I/O is the depth-0 case of the third: both read the same
// summary facts (summary.go), which record each body's I/O, send and
// call sites with their held-lock sets. The held region is computed
// conservatively: from a Lock()/RLock() call to the first matching
// Unlock()/RUnlock() on the same receiver expression, or to the end of
// the function when the unlock is deferred. Function literals inside
// the region are not scanned (they usually run later, off the lock);
// each literal's own body is analyzed separately. Calls whose callee is
// dynamic (interface or func value) are invisible to the summaries —
// that soundness gap is documented in DESIGN.md §7. The diskcache
// directory flock is excluded: serializing I/O is the flock's entire
// purpose, so only the lock-order check treats it as a lock.
type LockIO struct{}

func (LockIO) Name() string { return "lock-io" }

func (LockIO) Doc() string {
	return "file I/O, net calls, channel sends, or calls reaching I/O while a sync mutex is held"
}

// lockIOPkgs are the packages whose direct calls count as I/O under a
// lock.
var lockIOPkgs = map[string]bool{
	"os":        true,
	"io":        true,
	"io/fs":     true,
	"io/ioutil": true,
	"net":       true,
	"net/http":  true,
	"os/exec":   true,
}

// lockIOPure are functions from the I/O packages that are pure
// predicates or parsers — no syscall, no blocking — and therefore fine
// to call under a lock (e.g. diskcache classifying a read error while
// holding its index mutex).
var lockIOPure = map[string]bool{
	"os.IsNotExist":           true,
	"os.IsExist":              true,
	"os.IsPermission":         true,
	"os.IsTimeout":            true,
	"os.Getpid":               true,
	"net.ParseIP":             true,
	"net.ParseCIDR":           true,
	"net.ParseMAC":            true,
	"net.JoinHostPort":        true,
	"net.SplitHostPort":       true,
	"net.CIDRMask":            true,
	"http.StatusText":         true,
	"http.CanonicalHeaderKey": true,
}

func (LockIO) Check(prog *Program, p *Package) []Finding {
	var out []Finding
	prog.factsIn(p, func(facts *bodyFacts) {
		for _, io := range facts.ios {
			for _, h := range io.held {
				if h.pseudo {
					continue
				}
				if strings.HasPrefix(io.name, "(") {
					out = append(out, finding(p, "lock-io", io.pos,
						"call to %s while %s.%s is held (I/O latency serializes every lock holder)",
						io.name, h.expr, h.method))
				} else {
					out = append(out, finding(p, "lock-io", io.pos,
						"call to %s while %s.%s is held (the PR-4 diskcache bug class: I/O latency serializes every lock holder)",
						io.name, h.expr, h.method))
				}
			}
		}
		for _, s := range facts.sends {
			for _, h := range s.held {
				if h.pseudo {
					continue
				}
				out = append(out, finding(p, "lock-io", s.pos,
					"channel send while %s.%s is held (can block the lock on a slow receiver)",
					h.expr, h.method))
			}
		}
		for _, call := range facts.calls {
			if len(call.held) == 0 {
				continue
			}
			chain, ok := prog.ioChainOf(call.callee)
			if !ok {
				continue
			}
			for _, h := range call.held {
				if h.pseudo {
					continue
				}
				out = append(out, finding(p, "lock-io", call.pos,
					"call to %s while %s.%s is held reaches I/O: %s (the PR-4 bug class, one call deep)",
					displayName(call.callee), h.expr, h.method, strings.Join(chain, " -> ")))
			}
		}
	})
	return out
}

// isSyncMutexMethod reports whether the selector resolves to a method
// of sync.Mutex or sync.RWMutex (including promoted via embedding).
func isSyncMutexMethod(p *Package, sel *ast.SelectorExpr) bool {
	s, ok := p.Info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	pkgPath, name := namedType(sig.Recv().Type())
	return pkgPath == "sync" && (name == "Mutex" || name == "RWMutex")
}

// isOSNetMethodCall reports whether the call is a method call on a
// value whose named type lives in os or net (e.g. (*os.File).Write,
// net.Conn.Read).
func isOSNetMethodCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, ok := p.Info.Selections[sel]; !ok {
		return "", false // qualified identifier, handled by isPkgCall
	}
	recv := p.Info.TypeOf(sel.X)
	pkgPath, name := namedType(recv)
	if pkgPath == "os" || pkgPath == "net" {
		return "(" + pkgPath + "." + name + ")." + sel.Sel.Name, true
	}
	return "", false
}
