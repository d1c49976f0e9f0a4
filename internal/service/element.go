package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"

	"montblanc/internal/runner"
)

// A /v1/run body is report.EncodeJSON of the []runner.Result, which is
//
//	"[\n  " ELEM (",\n  " ELEM)* "\n]\n"
//
// (or "[]\n" for no results), where ELEM is one result's json.Marshal
// bytes indented with prefix and indent "  ". The service stores every
// result as its ELEM, once, and answers a request by writing the
// separators and the stored elements: no hit decodes or re-encodes.

// encodeElement renders one computed result as its response element.
func encodeElement(res runner.Result) ([]byte, error) {
	compact, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return storedElement(compact)
}

// storedElement turns a stored payload into the response element:
// one json.Indent scan, which validates the JSON and maps compact and
// already indented payloads to the same bytes. A payload that is not
// a single JSON object is rejected.
func storedElement(payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(payload) + 64)
	if err := json.Indent(&buf, payload, "  ", "  "); err != nil {
		return nil, err
	}
	elem := bytes.TrimRight(buf.Bytes(), " \t\r\n")
	if len(elem) == 0 || elem[0] != '{' {
		return nil, errors.New("payload is not a JSON object")
	}
	return elem, nil
}

var (
	bodyOpen  = []byte("[\n  ")
	bodySep   = []byte(",\n  ")
	bodyClose = []byte("\n]\n")
	bodyEmpty = []byte("[]\n")
)

// writeElements writes the response array of the given elements,
// byte-identical to report.EncodeJSON of the results they encode.
func writeElements(w io.Writer, elems [][]byte) error {
	if len(elems) == 0 {
		_, err := w.Write(bodyEmpty)
		return err
	}
	if _, err := w.Write(bodyOpen); err != nil {
		return err
	}
	for i, e := range elems {
		if i > 0 {
			if _, err := w.Write(bodySep); err != nil {
				return err
			}
		}
		if _, err := w.Write(e); err != nil {
			return err
		}
	}
	_, err := w.Write(bodyClose)
	return err
}
