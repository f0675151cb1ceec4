package serveutil

import (
	"encoding/json"
	"errors"
	"net/http"
)

// LimitBody caps r's body at limit bytes (<= 0 = unlimited) and reports
// whether the handler may go on. A declared Content-Length over the cap
// is rejected with the typed 413 before a byte is read; a chunked body
// trips the cap mid-read, and the handler hands that error to TooLarge.
// flag names the setting in the 413's message, code the route's error.
func LimitBody(w http.ResponseWriter, r *http.Request, limit int64, flag, code string) bool {
	if limit <= 0 {
		return true
	}
	if r.ContentLength > limit {
		writeTooLarge(w, flag, code, r.ContentLength, limit)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	return true
}

// TooLarge writes the typed 413 when err is LimitBody's cap tripping
// mid-read (an *http.MaxBytesError) and reports whether it did. The
// rest of that body is still on the wire, so the 413 closes the
// connection. net/http's MaxBytesReader would do so itself, but it
// cannot see the server's response through a wrapping writer (the
// observability layer's), and left open the connection reads its next
// request while the server still drains the old body.
func TooLarge(w http.ResponseWriter, err error, flag, code string) bool {
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		return false
	}
	w.Header().Set("Connection", "close")
	writeTooLarge(w, flag, code, -1, tooBig.Limit)
	return true
}

// bodyErrorJSON is the typed 413 body: a machine-readable code and the
// limit (plus a declared size), so clients can split and retry.
type bodyErrorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Limit int64  `json:"limitBytes"`
	Size  int64  `json:"sizeBytes,omitempty"`
}

func writeTooLarge(w http.ResponseWriter, flag, code string, size, limit int64) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusRequestEntityTooLarge)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(bodyErrorJSON{
		Error: "request body exceeds the server's " + flag + " limit",
		Code:  code,
		Limit: limit,
		Size:  max(size, 0),
	})
}
