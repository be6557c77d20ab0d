package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	mis "repro"
)

// verifyBodySeeds covers the shapes the one-pass parser must either decode
// exactly as encoding/json does or hand to it: canonical bodies, escaped
// strings, keys that differ only in case, duplicate keys, null, leading
// zeros, -0, exponents and fractions, out-of-range numbers, stray
// whitespace, trailing data and empty arrays.
var verifyBodySeeds = []string{
	`{"graph":"a","vertices":[0,2,4]}`,
	`{"graph":"a","vertices":[0,2,4],"timeout_ms":5}`,
	`{"timeout_ms":0,"vertices":[7],"graph":"g"}`,
	`{}`,
	`{"graph":"a","vertices":null}`,
	`{"graph":"a","vertices":[]}`,
	`{"graph":"é","vertices":[1]}`,
	"{\"graph\":\"\xff\",\"vertices\":[1]}",
	"{\"graph\":\"a\tb\",\"vertices\":[1]}",
	`{"graph":"a\"b","vertices":[1]}`,
	`{"graph":"\u0061","vertices":[1]}`,
	`{"gr\u0061ph":"a","vertices":[1]}`,
	`{"graph":"a<&>","vertices":[1]}`,
	`{"Graph":"a","vertices":[1]}`,
	`{"graph":"a","VERTICES":[1]}`,
	`{"graph":"a","vertices":[1],"Timeout_MS":1}`,
	`{"graph":"a","graph":"b"}`,
	`{"vertices":[1],"vertices":[2,3]}`,
	`{"timeout_ms":1,"timeout_ms":2}`,
	`null`,
	`{"graph":null}`,
	`{"timeout_ms":null}`,
	`{"vertices":[null]}`,
	`{"vertices":nul}`,
	`{"vertices":[01]}`,
	`{"vertices":[00]}`,
	`{"timeout_ms":007}`,
	`{"vertices":[-0]}`,
	`{"timeout_ms":-0}`,
	`{"timeout_ms":-5}`,
	`{"vertices":[1e3]}`,
	`{"vertices":[1E3]}`,
	`{"vertices":[5.0]}`,
	`{"timeout_ms":1e3}`,
	`{"vertices":[4294967295]}`,
	`{"vertices":[4294967296]}`,
	`{"vertices":[18446744073709551616]}`,
	`{"timeout_ms":9223372036854775807}`,
	`{"timeout_ms":9223372036854775808}`,
	` {"graph":"a"}`,
	`{ "graph":"a"}`,
	`{"graph" :"a"}`,
	`{"vertices":[1, 2]}`,
	`{"vertices":[ ]}`,
	"{\"graph\":\"a\"}\n",
	`{"graph":"a"}garbage`,
	`{"graph":"a"}}`,
	`{"graph":"a"}{"graph":"b"}`,
	`{"graph":"a",}`,
	`{"graph":"a","extra":1}`,
	`{"vertices":["1"]}`,
	`{"vertices":[[1]]}`,
	`{"vertices":[1,]}`,
	`{"vertices":[,1]}`,
	`{"vertices":[1]]}`,
	`{"vertices":[1`,
	`{"graph":"a"`,
	`{`,
	`[]`,
	``,
}

// FuzzDecodeVerifyRequest holds the verify decoder to encoding/json with
// DisallowUnknownFields, the daemon's decoder before the one-pass parser:
// the same accept/reject decision, the same error and the same value.
func FuzzDecodeVerifyRequest(f *testing.F) {
	for _, s := range verifyBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want VerifyRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		if got, ok := parseVerifyRequest(body); ok {
			if wantErr != nil {
				t.Fatalf("one-pass parser accepts %q; encoding/json: %v", body, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("one-pass parser decodes %q to %+v; encoding/json to %+v", body, got, want)
			}
		}

		got, ae := decodeVerifyRequest(body)
		switch {
		case wantErr != nil && ae == nil:
			t.Fatalf("decoder accepts %q; encoding/json: %v", body, wantErr)
		case wantErr == nil && ae != nil:
			t.Fatalf("decoder rejects %q (%v); encoding/json accepts it", body, ae)
		case ae != nil && ae.Message != "bad request body: "+wantErr.Error():
			t.Fatalf("decoder rejects %q with %q; encoding/json with %q", body, ae.Message, wantErr)
		case ae == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decoder decodes %q to %+v; encoding/json to %+v", body, got, want)
		}
	})
}

// TestMarshalledVerifyRequestsTakeOnePassPath: what clients send —
// json.Marshal output — is canonical, so the one-pass parser takes it.
func TestMarshalledVerifyRequestsTakeOnePassPath(t *testing.T) {
	for _, req := range []VerifyRequest{
		{},
		{Graph: "main", Vertices: []uint32{0, 9, 10, 4294967295}, TimeoutMS: 1500},
		{Graph: "dense", Vertices: []uint32{}},
		{Graph: "übergraph", Vertices: []uint32{3}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parseVerifyRequest(body)
		if !ok {
			t.Fatalf("json.Marshal output %s not taken by the one-pass parser", body)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%s decoded to %+v", body, got)
		}
	}
}

// TestVerifyKeyUnchanged: the buffered hash names every vertex list as the
// per-vertex hash did, across the buffer's boundary, so cache keys keep
// their meaning.
func TestVerifyKeyUnchanged(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025, 5000} {
		vs := make([]uint32, n)
		for i := range vs {
			vs[i] = uint32(i*2654435761) ^ 0x5bd1e995
		}
		h := sha256.New()
		var b [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
		want := fmt.Sprintf("verify|d|%s", hex.EncodeToString(h.Sum(nil)))
		if got := verifyKey("d", vs); got != want {
			t.Fatalf("%d vertices: key %s, want %s", n, got, want)
		}
	}
}

// TestEncodeSolveResponseRoundTrip: the one-pass encoder's output decodes
// to the SolveResponse writeJSON yields, from a buffer of exactly the
// output's size.
func TestEncodeSolveResponseRoundTrip(t *testing.T) {
	// A 200k-vertex graph's set, through the iterator the handler uses.
	inSet := make([]bool, 200_000)
	for v := range inSet {
		inSet[v] = v%7 != 3
	}
	widths := []uint32{7, 42, 999, 1000, 65536, 4294967294}
	cases := []struct {
		name string
		ids  []uint32
		seq  func(yield func(uint32) bool)
	}{
		{"empty set", []uint32{}, slices.Values([]uint32{})},
		{"vertex 0", []uint32{0}, slices.Values([]uint32{0})},
		{"vertex 4294967295", []uint32{4294967295}, slices.Values([]uint32{4294967295})},
		{"every width", widths, slices.Values(widths)},
		{"200k-vertex set", (&mis.Result{InSet: inSet}).Vertices(), members(inSet)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := SolveResponse{
				Graph: "g<&>", Algorithm: "two-k-swap", Digest: "d1", Size: len(tc.ids),
				Rounds: 2, RoundGains: []int{3, 1}, MemoryBytes: 77,
				IO:       IOStats{Scans: 4, PhysicalScans: 2, CarriedScans: 1, RecordsRead: 9, BytesRead: 100},
				Verified: true, Cache: "hit", ElapsedMS: 12,
			}
			withList := resp
			withList.Vertices = tc.ids
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, &withList)
			var want SolveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
				t.Fatal(err)
			}

			body, err := encodeSolveResponse(&resp, tc.seq)
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.ids) > 0 && cap(body) != len(body) {
				t.Errorf("buffer capacity %d for a %d-byte body", cap(body), len(body))
			}
			var got SolveResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("decode %.200q: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip: got %+v, want %+v", got, want)
			}
		})
	}
}

// benchInSet is serve-read's verify payload: about 142k members of a
// 200k-vertex graph.
func benchInSet() []bool {
	inSet := make([]bool, 200_000)
	for v := range inSet {
		inSet[v] = v%7 < 5
	}
	return inSet
}

func BenchmarkDecodeVerifyRequest(b *testing.B) {
	res := &mis.Result{InSet: benchInSet()}
	body, err := json.Marshal(VerifyRequest{Graph: "main", Vertices: res.Vertices()})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, ae := decodeVerifyRequest(body); ae != nil {
				b.Fatal(ae)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req VerifyRequest
			if ae := decodeJSON(body, &req); ae != nil {
				b.Fatal(ae)
			}
		}
	})
}

func BenchmarkVerifyKey(b *testing.B) {
	vs := (&mis.Result{InSet: benchInSet()}).Vertices()
	for b.Loop() {
		verifyKey("d", vs)
	}
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse http.Header

func (d discardResponse) Header() http.Header       { return http.Header(d) }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}

func BenchmarkEncodeSolveResponse(b *testing.B) {
	res := &mis.Result{InSet: benchInSet()}
	resp := SolveResponse{Graph: "main", Algorithm: "two-k-swap", Digest: "d", Cache: "hit"}
	b.Run("one-pass", func(b *testing.B) {
		for b.Loop() {
			if _, err := encodeSolveResponse(&resp, members(res.InSet)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		w := discardResponse{}
		for b.Loop() {
			withList := resp
			withList.Vertices = res.Vertices()
			writeJSON(w, http.StatusOK, &withList)
		}
	})
}
