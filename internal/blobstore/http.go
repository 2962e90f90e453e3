package blobstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// This file is the HTTP wire of the blob tier: a client backend with
// per-attempt timeouts and capped-backoff retries, and a server
// handler that exposes any Backend at GET/HEAD/PUT /{key}. Together
// they let a fleet of processes share one warm artifact tier: each
// pvserve mounts its local cache directory at /v1/blobs, and peers
// point their remote tier at it.

// HTTPOptions tunes the client backend. The zero value is usable:
// 5 s per attempt, 2 retries, 50 ms initial backoff.
type HTTPOptions struct {
	// Timeout bounds each attempt (default 5 s).
	Timeout time.Duration
	// Retries is the number of extra attempts after the first for
	// retryable failures — network errors and 5xx answers; 404 and
	// other 4xx never retry (default 2, negative = none).
	Retries int
	// Backoff is the delay before the first retry, doubling per
	// attempt and capped at 2 s (default 50 ms).
	Backoff time.Duration
	// Client overrides the HTTP client (default http.DefaultClient;
	// per-attempt timeouts are applied via request contexts either
	// way).
	Client *http.Client
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// HTTP is the remote-tier client backend: blobs live behind a base
// URL (a peer's /v1/blobs mount), one GET/PUT/HEAD per operation.
// Every failure is surfaced as an error for the caller to absorb —
// the layering above (Tiered, fieldcache) treats remote errors as
// misses, so a slow or dead peer degrades to recompute, never to a
// failed run.
type HTTP struct {
	base string
	opts HTTPOptions
	// limit caps a GET body (maxBlobBytes; tests lower it).
	limit int64
}

// OpenHTTP builds a client backend on baseURL (e.g.
// "http://cache-host:8037/v1/blobs").
func OpenHTTP(baseURL string, opts HTTPOptions) (*HTTP, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("blobstore: remote url %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
		return nil, fmt.Errorf("blobstore: remote url %q: need http(s)://host[/path]", baseURL)
	}
	return &HTTP{base: strings.TrimRight(u.String(), "/"), opts: opts.withDefaults(), limit: maxBlobBytes}, nil
}

func (h *HTTP) keyURL(key string) string { return h.base + "/" + url.PathEscape(key) }

// errStatus marks a non-2xx answer; 5xx instances are retryable.
type errStatus struct {
	code int
	url  string
}

func (e *errStatus) Error() string {
	return fmt.Sprintf("blobstore: %s answered %d", e.url, e.code)
}

// errTooLarge marks a blob over the size cap: the peer will send the
// same bytes again, so it is not retried.
var errTooLarge = errors.New("blobstore: blob exceeds the size cap")

func retryable(err error) bool {
	if errors.Is(err, errTooLarge) {
		return false
	}
	var st *errStatus
	if errors.As(err, &st) {
		return st.code >= 500
	}
	// Anything that is not an HTTP status — connection refused, reset,
	// deadline — is infrastructure and worth another attempt.
	return !errors.Is(err, ErrNotFound)
}

// do runs one operation with the retry policy: per-attempt timeout,
// capped exponential backoff, no retry on 404 or other 4xx.
func (h *HTTP) do(op func(ctx context.Context) error) error {
	backoff := h.opts.Backoff
	var err error
	for attempt := 0; attempt <= h.opts.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), h.opts.Timeout)
		err = op(ctx)
		cancel()
		if err == nil || !retryable(err) {
			return err
		}
	}
	return err
}

// Get fetches the blob under key from the remote tier.
func (h *HTTP) Get(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	var out []byte
	err := h.do(func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.keyURL(key), nil)
		if err != nil {
			return err
		}
		resp, err := h.opts.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			out, err = readBlob(resp, h.limit)
			return err
		case resp.StatusCode == http.StatusNotFound:
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		default:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			return &errStatus{code: resp.StatusCode, url: h.keyURL(key)}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readBlob reads a GET body of at most limit bytes into one buffer.
// A declared Content-Length is allocated once and must match the body
// exactly: a short body or a trailing byte is an error. A length above
// the cap fails before any allocation, and a body without a declared
// length fails once it passes the cap.
func readBlob(resp *http.Response, limit int64) ([]byte, error) {
	n := resp.ContentLength
	if n > limit {
		return nil, fmt.Errorf("%w: %d-byte blob over the %d-byte cap", errTooLarge, n, limit)
	}
	if n < 0 {
		out, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if err != nil {
			return nil, err
		}
		if int64(len(out)) > limit {
			return nil, fmt.Errorf("%w: body over the %d-byte cap", errTooLarge, limit)
		}
		return out, nil
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, out); err != nil {
		return nil, fmt.Errorf("blobstore: body shorter than its %d-byte Content-Length: %w", n, err)
	}
	var extra [1]byte
	if m, _ := resp.Body.Read(extra[:]); m > 0 {
		return nil, fmt.Errorf("blobstore: body longer than its %d-byte Content-Length", n)
	}
	return out, nil
}

// Put pushes data under key to the remote tier.
func (h *HTTP) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return h.do(func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, h.keyURL(key), bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := h.opts.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode/100 != 2 {
			return &errStatus{code: resp.StatusCode, url: h.keyURL(key)}
		}
		return nil
	})
}

// Stat asks the remote tier for the blob's size via HEAD.
func (h *HTTP) Stat(key string) (int64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	var size int64
	err := h.do(func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodHead, h.keyURL(key), nil)
		if err != nil {
			return err
		}
		resp, err := h.opts.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			size = resp.ContentLength
			return nil
		case resp.StatusCode == http.StatusNotFound:
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		default:
			return &errStatus{code: resp.StatusCode, url: h.keyURL(key)}
		}
	})
	return size, err
}

// maxBlobBytes caps blob bodies: PUTs the server handler accepts and
// GET answers the client reads. Cache artifacts (horizon maps,
// cell-stats tables) sit far below it.
const maxBlobBytes = 256 << 20

// Handler serves b over HTTP: GET and HEAD return a blob, PUT stores
// one. The key is taken from the routing pattern's {key} path value
// (mount with e.g. mux.Handle("/v1/blobs/{key}", Handler(b))) or,
// unrouted, from the final path segment. Error answers use the same
// {"error":{"code","message"}} envelope as the rest of the /v1
// surface so fleet clients parse one shape everywhere.
func Handler(b Backend) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if key == "" {
			if i := strings.LastIndexByte(r.URL.Path, '/'); i >= 0 {
				key = r.URL.Path[i+1:]
			}
		}
		if !ValidKey(key) {
			writeHandlerError(w, http.StatusBadRequest, "invalid_request",
				fmt.Sprintf("invalid blob key %q", key))
			return
		}
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			raw, err := b.Get(key)
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					writeHandlerError(w, http.StatusNotFound, "not_found",
						fmt.Sprintf("no blob %q", key))
				} else {
					writeHandlerError(w, http.StatusInternalServerError, "internal", err.Error())
				}
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
			w.WriteHeader(http.StatusOK)
			if r.Method == http.MethodGet {
				_, _ = w.Write(raw)
			}
		case http.MethodPut:
			raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
			if err != nil {
				writeHandlerError(w, http.StatusBadRequest, "invalid_request",
					fmt.Sprintf("reading blob body: %v", err))
				return
			}
			if err := b.Put(key, raw); err != nil {
				writeHandlerError(w, http.StatusInternalServerError, "internal", err.Error())
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			writeHandlerError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("method %s not allowed on a blob", r.Method))
		}
	})
}

// writeHandlerError emits the /v1 error envelope without importing
// the serve package (which imports this one).
func writeHandlerError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]map[string]string{
		"error": {"code": code, "message": msg},
	})
}
