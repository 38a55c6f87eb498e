package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHTTPFaultFieldValidation pins the 400 surface of the two
// fault-tolerance wire fields: negative deadlines and oversized request
// IDs are refused before admission, while boundary-legal values pass.
func TestHTTPFaultFieldValidation(t *testing.T) {
	_, ts := startNode(t, NodeConfig{Backend: &fakeBackend{}, Service: Config{DedupWindow: 8}})

	cases := []struct {
		name, body string
		want       int
	}{
		{"negative-deadline", `{"deadline_ms":-5,"ops":[{"op":"get","key":1}]}`, http.StatusBadRequest},
		{"oversized-id", `{"id":"` + strings.Repeat("x", MaxRequestID+1) + `","ops":[{"op":"get","key":1}]}`, http.StatusBadRequest},
		{"id-at-cap", `{"id":"` + strings.Repeat("x", MaxRequestID) + `","ops":[{"op":"get","key":1}]}`, http.StatusOK},
		{"generous-deadline", `{"deadline_ms":60000,"ops":[{"op":"get","key":1}]}`, http.StatusOK},
	}
	for _, tc := range cases {
		resp, body := postBatch(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

// FuzzBatchHandler throws arbitrary bodies at POST /v1/batch: whatever
// the bytes decode to, the handler must answer with one of the
// protocol's status codes and never panic. The seeds cover every verb,
// the fault-tolerance fields, and the malformed shapes the table tests
// pin individually.
func FuzzBatchHandler(f *testing.F) {
	n, err := NewNode(NodeConfig{Backend: &fakeBackend{},
		Service: Config{Tick: 200 * time.Microsecond, DedupWindow: 8}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(n.Close)
	h := n.Handler()

	seeds := []string{
		`{"ops":[{"op":"put","key":1,"val":2}]}`,
		`{"ops":[{"op":"get","key":1},{"op":"delete","key":2},{"op":"add","key":3,"val":4}]}`,
		`{"ops":[{"op":"scan","n":5}]}`,
		`{"ops":[{"op":"transfer","from":1,"to":2,"val":3}]}`,
		`{"ops":[{"op":"transfer","from":7,"to":7,"val":3}]}`,
		`{"id":"abc","deadline_ms":250,"ops":[{"op":"get","key":1}]}`,
		`{"deadline_ms":-1,"ops":[{"op":"get","key":1}]}`,
		`{"ops":[{"op":"increment","key":1}]}`,
		`{"ops":[]}`,
		`{"ops":`,
		`[]`,
		`{"ops":[{"op":"get","key":-1}]}`,
		`{"id":` + `"` + strings.Repeat("z", 200) + `","ops":[{"op":"get","key":1}]}`,
		"\x00\xff\xfe not json at all",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req) // a panic here fails the fuzz run
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
			http.StatusGatewayTimeout, http.StatusServiceUnavailable:
		default:
			t.Errorf("status %d for body %q", w.Code, body)
		}
	})
}
