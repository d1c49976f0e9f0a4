package platform

import (
	"fmt"
	"sort"
)

// Resolver answers platform lookups against an overlay of extra specs
// on top of the global registry, without registering anything. It is
// the request-scoped counterpart of Register/Lookup: a service request
// carrying inline machine specs resolves them through a Resolver, so
// concurrent requests with clashing machine names never fight over the
// process-wide registry and nothing leaks past the request.
//
// An extra spec may shadow a registered name: within its Resolver it
// wins every lookup, which is exactly the "same name, tweaked machine"
// experiment the global registry forbids. The zero-value Resolver (or
// one built from no specs) is a pure view of the registry.
type Resolver struct {
	extra map[string]registered
	order []string // extra names in insertion order
}

// NewResolver builds a resolver over the given extra specs. Every spec
// is validated, deep-copied (later caller mutations never show
// through) and encoded once, like a registered one; duplicate names
// within the batch are rejected just like registerBatch rejects them,
// since the second spec would silently shadow the first.
func NewResolver(extra []Spec) (*Resolver, error) {
	r := &Resolver{}
	if len(extra) == 0 {
		return r, nil
	}
	r.extra = make(map[string]registered, len(extra))
	for _, s := range extra {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := r.extra[s.Name]; dup {
			return nil, fmt.Errorf("platform: duplicate inline spec %q", s.Name)
		}
		e, err := newRegistered(s)
		if err != nil {
			return nil, err
		}
		r.extra[s.Name] = e
		r.order = append(r.order, s.Name)
	}
	return r, nil
}

// lookup returns the entry for name, an extra spec shadowing a
// registered one.
func (r *Resolver) lookup(name string) (registered, bool) {
	if r != nil {
		if e, ok := r.extra[name]; ok {
			return e, true
		}
	}
	return lookupRegistered(name)
}

// LookupSpec returns the named spec — the resolver's extra spec when
// one shadows the name, the registered spec otherwise. The result is a
// deep copy either way.
func (r *Resolver) LookupSpec(name string) (Spec, bool) {
	e, ok := r.lookup(name)
	if !ok {
		return Spec{}, false
	}
	return e.spec.clone(), true
}

// SpecJSON returns the json.Marshal encoding of the spec LookupSpec
// would return for name, encoded once when the spec was registered or
// handed to NewResolver. The bytes are shared: callers must not
// modify them.
func (r *Resolver) SpecJSON(name string) ([]byte, bool) {
	e, ok := r.lookup(name)
	return e.json, ok
}

// Lookup builds a fresh Platform for the named spec, extra specs
// shadowing registered ones.
func (r *Resolver) Lookup(name string) (*Platform, error) {
	s, ok := r.LookupSpec(name)
	if !ok {
		return nil, fmt.Errorf("platform: unknown platform %q (available: %v)", name, r.Names())
	}
	return s.Build()
}

// Names returns every resolvable name — the union of the registry and
// the extra specs — in sorted order, matching the contract of the
// package-level Names.
func (r *Resolver) Names() []string {
	names := Names()
	if r == nil || len(r.extra) == 0 {
		return names
	}
	seen := make(map[string]bool, len(names)+len(r.extra))
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range r.order {
		if !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	sort.Strings(names)
	return names
}
