package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// lyingServer answers every GET with a hand-written response that
// declares length bytes and sends body, then closes the connection.
func lyingServer(t *testing.T, length int, body string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", length, body)
		buf.Flush()
	}))
}

// roundTripFunc serves responses without a network, so a test can
// hand the client a body that disagrees with its declared length.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func staticClient(contentLength int64, body io.Reader) *http.Client {
	return &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, ContentLength: contentLength,
			Body: io.NopCloser(body), Header: http.Header{}}, nil
	})}
}

// unreadable fails the test if the client reads it at all.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("body of an over-cap blob was read")
	return 0, io.EOF
}

// TestHTTPGetShortBody: a peer that declares more bytes than it sends
// is an error, and through a tiered store an error and a miss.
func TestHTTPGetShortBody(t *testing.T) {
	srv := lyingServer(t, 100, "only ten b")
	defer srv.Close()
	h, err := OpenHTTP(srv.URL, HTTPOptions{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Get("k"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("short body = %q, %v; want an error", got, err)
	}
	tiered, err := NewTiered(nil, Tier{Name: "remote", Backend: h})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiered.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tiered get = %v, want a miss", err)
	}
	if m := tiered.Metrics()[0]; m.Errors != 1 || m.Misses != 1 || m.Hits != 0 {
		t.Errorf("tier metrics = %+v, want one error and one miss", m)
	}
}

// TestHTTPGetLongBody: a body longer than its declared length is an
// error. net/http stops reading at the declared length itself (over
// the wire the surplus is dropped with the connection), so the check
// guards custom transports; both paths return no over-long blob.
func TestHTTPGetLongBody(t *testing.T) {
	h, err := OpenHTTP("http://peer.invalid", HTTPOptions{Retries: -1, Client: staticClient(4, strings.NewReader("12345678"))})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Get("k"); err == nil {
		t.Fatalf("long body = %q, want an error", got)
	}
	srv := lyingServer(t, 4, "12345678")
	defer srv.Close()
	wire, err := OpenHTTP(srv.URL, HTTPOptions{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wire.Get("k"); err == nil && string(got) != "1234" {
		t.Fatalf("long body over the wire = %q, want at most the declared 4 bytes", got)
	}
}

// TestHTTPGetSizeCap: a declared length over the cap fails without
// reading (or allocating for) the body and is not retried; an
// undeclared body fails once it passes the cap; a body at the cap
// reads whole.
func TestHTTPGetSizeCap(t *testing.T) {
	var gets int
	over, err := OpenHTTP("http://peer.invalid", HTTPOptions{Client: &http.Client{
		Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
			gets++
			return &http.Response{StatusCode: http.StatusOK, ContentLength: 1 << 40,
				Body: io.NopCloser(unreadable{t}), Header: http.Header{}}, nil
		}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := over.Get("k"); !errors.Is(err, errTooLarge) {
		t.Fatalf("declared 1 TiB = %v, want errTooLarge", err)
	}
	if gets != 1 {
		t.Errorf("over-cap blob fetched %d times, want 1 (no retry)", gets)
	}

	// A chunked answer declares no length.
	payload := bytes.Repeat([]byte("x"), 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload[:32])
		w.(http.Flusher).Flush()
		w.Write(payload[32:])
	}))
	defer srv.Close()
	for _, tc := range []struct {
		limit int64
		ok    bool
	}{{63, false}, {64, true}} {
		h, err := OpenHTTP(srv.URL, HTTPOptions{Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		h.limit = tc.limit
		got, err := h.Get("k")
		if tc.ok != (err == nil) || tc.ok && !bytes.Equal(got, payload) {
			t.Errorf("cap %d over a 64-byte chunked body: %d bytes, %v", tc.limit, len(got), err)
		}
	}
}
