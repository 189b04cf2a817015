// Golden corpus for the intern-write check: interned *routing.BGPAttrs
// are shared and immutable outside internal/routing. Loaded under a
// synthetic path outside internal/routing.
package internwrite

import "repro/internal/routing"

func mutateField(a *routing.BGPAttrs) {
	a.MED = 5 // want `assignment through interned \*routing\.BGPAttrs`
}

func mutateViaDeref(a *routing.BGPAttrs) {
	(*a).LocalPref = 200 // want `assignment through interned \*routing\.BGPAttrs`
}

func incrementField(a *routing.BGPAttrs) {
	a.Weight++ // want `increment/decrement through interned \*routing\.BGPAttrs`
}

func storeWhole(a *routing.BGPAttrs, b routing.BGPAttrs) {
	*a = b // want `assignment through interned \*routing\.BGPAttrs`
}

// The sanctioned mutation path: copy the value, modify the copy,
// re-intern through the pool.
func copyModifyReinternOK(p *routing.Pool, a *routing.BGPAttrs) *routing.BGPAttrs {
	attrs := *a
	attrs.MED = 7
	return p.Attrs(&attrs)
}

// Reassigning the pointer variable itself writes the local, not the
// interned value.
func reassignPointerOK(a, b *routing.BGPAttrs) *routing.BGPAttrs {
	a = b
	return a
}

func suppressed(a *routing.BGPAttrs) {
	//gblint:ignore intern-write corpus-only demonstration of the documented escape hatch
	a.Tag = 9
}
