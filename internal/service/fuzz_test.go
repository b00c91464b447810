package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequest drives a submit body through the decoding the HTTP
// handler applies (unknown fields refused), then Normalize and
// Validate, as Submit does. None of it may panic, and a request that
// validates must resolve through its Spec. The committed corpus under
// testdata/fuzz/FuzzRequest holds valid submissions and ones each check
// refuses.
func FuzzRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		req.Normalize()
		if req.Validate() != nil {
			return
		}
		s := req.Spec()
		p, err := s.Resolve()
		if err != nil || p == nil {
			t.Fatalf("request %+v validated but does not resolve: %v", req, err)
		}
	})
}
