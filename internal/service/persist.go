package service

// The durable tier stores each result as its response element (see
// encodeElement), so a disk hit is a checksummed read plus one
// indentation scan (storedElement) and never decodes the result. The
// store itself guarantees integrity (checksummed header, quarantine on
// mismatch); this layer only checks that the payload is a JSON object.

// diskGet consults the durable tier. A checksum-valid payload that is
// not one JSON object was written by an incompatible version: it is
// treated as a miss and the recomputed result overwrites it. Entries
// stored as compact json.Marshal bytes, the earlier format, indent to
// the same element and keep serving.
func (s *Server) diskGet(key string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	blob, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	elem, err := storedElement(blob)
	if err != nil {
		s.logf("montblanc serve: stale store entry %s: %v (will recompute)", key, err)
		return nil, false
	}
	return elem, true
}

// diskPut persists one computed result's element. Persistence failures
// are logged and counted (store disk_errors), never surfaced to the
// request: the response was already computed and cached in memory —
// a full or failing disk degrades durability, not availability.
func (s *Server) diskPut(key string, elem []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(key, elem); err != nil {
		s.logf("montblanc serve: persisting result %s: %v", key, err)
	}
}
