package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The canonical request is the exact document hashed into a cache key.
// Its field set and order are part of the service's cache contract
// (SERVICE.md): every knob that can change an experiment's output is
// present — always, with zero values explicit, so "unset" and
// "explicitly default" canonicalize identically — and the platform set
// is resolved down to full Spec JSON, so two requests naming the same
// platform but meaning different machines (an inline shadow, a
// different registry) never share a key. The document is
//
//	{"experiment":ID,"quick":Q,"seed":N,"platforms":[SPEC,...],"fault":F}
//
// byte for byte what json.Marshal gives for a struct with those five
// fields. Fault is the user fault schedule, or null for the defaults:
// fault-injected results must never replay from a failure-free run's
// cache entry (contrast Options.SimWorkers, which cannot change output
// and is absent).

// CanonicalJSON renders the request (id, o) in canonical wire form:
// fixed field order, defaults explicit, and the platform set expanded
// to resolved specs in request order (an empty Platforms list means
// every resolvable name, sorted — the same expansion sweepPlatforms
// applies). The determinism suite guarantees an experiment's output is
// a pure function of exactly these bytes, which is what makes the
// service's content-addressed cache sound: equal canonical bytes imply
// equal output. (The converse need not hold — two different platform
// sets may render identically for an experiment that ignores them;
// that costs a duplicate cache entry, never a wrong answer.)
func CanonicalJSON(id string, o Options) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeCanonical(&buf, id, o); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CacheKey returns the content address of one experiment execution:
// the hex SHA-256 of CanonicalJSON(id, o). Results stored under this
// key may be replayed for any request that canonicalizes to the same
// bytes. The document is streamed into the hash, never built.
func CacheKey(id string, o Options) (string, error) {
	h := sha256.New()
	if err := writeCanonical(h, id, o); err != nil {
		return "", err
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// listSep separates the spliced platform specs.
var listSep = []byte(",")

// writeCanonical writes the canonical document of (id, o) to w piece
// by piece, splicing each platform's JSON as the registry (or the
// request's inline Resolver) encoded it once. w is a hash or a buffer,
// whose writes cannot fail.
func writeCanonical(w io.Writer, id string, o Options) error {
	fj := []byte("null")
	if o.Fault != nil {
		if err := o.Fault.Validate(); err != nil {
			return err
		}
		var err error
		if fj, err = json.Marshal(o.Fault); err != nil {
			return err
		}
	}
	r, err := o.Resolver()
	if err != nil {
		return err
	}
	names := o.Platforms
	if len(names) == 0 {
		names = r.Names()
	}
	idj, err := json.Marshal(id)
	if err != nil {
		return err
	}
	doc := make([]byte, 0, 64+len(idj)+len(fj))
	doc = append(doc, `{"experiment":`...)
	doc = append(doc, idj...)
	doc = append(doc, `,"quick":`...)
	doc = strconv.AppendBool(doc, o.Quick)
	doc = append(doc, `,"seed":`...)
	doc = strconv.AppendUint(doc, o.Seed, 10)
	doc = append(doc, `,"platforms":[`...)
	w.Write(doc)
	for i, n := range names {
		spec, ok := r.SpecJSON(n)
		if !ok {
			return fmt.Errorf("experiments: unknown platform %q in options", n)
		}
		if i > 0 {
			w.Write(listSep)
		}
		w.Write(spec)
	}
	doc = append(doc[:0], `],"fault":`...)
	doc = append(doc, fj...)
	doc = append(doc, '}')
	w.Write(doc)
	return nil
}
