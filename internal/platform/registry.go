package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// The process-wide platform registry. Built-in machines register during
// package init (builtin.go); user machines arrive through Register or
// LoadSpecFile. Reads vastly outnumber writes (every experiment looks
// platforms up), hence the RWMutex.
var (
	regMu sync.RWMutex
	specs = map[string]registered{}
)

// registered is one machine as the registry (or a Resolver) holds it:
// a private deep copy of the spec plus its json.Marshal bytes, encoded
// once so that every cache key splices them instead of re-marshalling
// the machine per request.
type registered struct {
	spec Spec
	json []byte
}

// newRegistered deep-copies s and encodes it. A spec that cannot be
// encoded cannot appear in a cache key, so it is rejected up front.
func newRegistered(s Spec) (registered, error) {
	c := s.clone()
	b, err := json.Marshal(c)
	if err != nil {
		return registered{}, fmt.Errorf("platform: spec %s: encoding: %w", s.Name, err)
	}
	return registered{spec: c, json: b}, nil
}

// Register adds a validated spec to the registry. Registering a name
// twice is an error: platform identity is global, and silently
// replacing a machine mid-suite would make experiment output depend on
// registration order.
func Register(s Spec) error {
	return registerBatch([]Spec{s})
}

// registerBatch validates and inserts a set of specs atomically: the
// whole batch is checked (validation, duplicates against the registry
// and within the batch) and inserted under one lock, so a bad or
// racing batch never half-applies. The registry stores deep copies,
// insulating it from later caller mutations, each with its JSON
// encoding (see Resolver.SpecJSON).
func registerBatch(batch []Spec) error {
	entries := make([]registered, len(batch))
	for i, s := range batch {
		if err := s.Validate(); err != nil {
			return err
		}
		var err error
		if entries[i], err = newRegistered(s); err != nil {
			return err
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	seen := map[string]bool{}
	for _, s := range batch {
		if _, dup := specs[s.Name]; dup || seen[s.Name] {
			return fmt.Errorf("platform: duplicate registration of %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, e := range entries {
		specs[e.spec.Name] = e
	}
	return nil
}

// MustRegister registers a spec and panics on error — for package init
// of built-in machines, where a failure is a programming bug.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup builds a fresh Platform for the named spec. Each call returns
// an independent value (see Spec.Build), so callers may mutate it.
func Lookup(name string) (*Platform, error) {
	s, ok := LookupSpec(name)
	if !ok {
		return nil, fmt.Errorf("platform: unknown platform %q (registered: %v)", name, Names())
	}
	return s.Build()
}

// MustLookup is Lookup for names known to be registered (the built-in
// machines); it panics on error.
func MustLookup(name string) *Platform {
	p, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// LookupSpec returns the registered spec by name. The result is a deep
// copy: editing it (the copy-a-builtin-and-tweak pattern) never writes
// through into the registry.
func LookupSpec(name string) (Spec, bool) {
	e, ok := lookupRegistered(name)
	if !ok {
		return Spec{}, false
	}
	return e.spec.clone(), true
}

// lookupRegistered returns the registry entry for name. The entry is
// shared and immutable: callers copy the spec before handing it out
// and never modify the JSON bytes.
func lookupRegistered(name string) (registered, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := specs[name]
	return e, ok
}

// Names returns every registered platform name in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(specs))
	for name := range specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Specs returns every registered spec sorted by name.
func Specs() []Spec {
	names := Names()
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, _ := LookupSpec(n)
		out = append(out, s)
	}
	return out
}

// ParseSpecs decodes one spec object or an array of spec objects from
// JSON. Unknown fields are rejected so a typo in a hand-written machine
// file fails loudly instead of silently defaulting.
func ParseSpecs(r io.Reader) ([]Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("platform: reading specs: %w", err)
	}
	decode := func(v interface{}) error {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return err
		}
		// Trailing garbage after the value is a malformed file.
		if _, err := dec.Token(); err != io.EOF {
			return fmt.Errorf("trailing data after spec")
		}
		return nil
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		var many []Spec
		if err := decode(&many); err != nil {
			return nil, fmt.Errorf("platform: parsing specs: %w", err)
		}
		return many, nil
	}
	var one Spec
	if err := decode(&one); err != nil {
		return nil, fmt.Errorf("platform: parsing specs: %w", err)
	}
	return []Spec{one}, nil
}

// LoadSpecFile parses a JSON spec file (one spec object or an array)
// and registers every machine in it, returning the registered names in
// file order. The file applies atomically: validation failures and
// duplicate names abort before any spec from it is registered.
func LoadSpecFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	defer f.Close()
	// ParseSpecs and registerBatch errors already carry the package
	// prefix; wrap with just the file path to avoid stuttering it.
	loaded, err := ParseSpecs(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(loaded) == 0 {
		return nil, fmt.Errorf("platform: %s: no specs in file", path)
	}
	if err := registerBatch(loaded); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(loaded))
	for _, s := range loaded {
		names = append(names, s.Name)
	}
	return names, nil
}
