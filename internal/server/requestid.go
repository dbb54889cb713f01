package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync/atomic"
)

// requestIDHeader names a request across its hops: a client may supply it, a
// frontend forwards it to every worker leg, and every response — errors
// included — echoes it, so one identifier ties a client's complaint to the
// frontend's and the workers' view of the same request.
const requestIDHeader = "X-Request-Id"

// requestIDs mints identifiers for requests that arrive without a usable
// one: a random per-instance prefix, so two daemons never collide, and a
// counter.
type requestIDs struct {
	prefix string
	seq    atomic.Uint64
}

func newRequestIDs() *requestIDs {
	var b [6]byte
	// A failed read leaves a zero prefix: identifiers stay unique within
	// the process, which is all the counter promises.
	_, _ = rand.Read(b[:])
	return &requestIDs{prefix: hex.EncodeToString(b[:]) + "-"}
}

// validRequestID is what an inbound identifier must look like to be carried
// on: short and inert in a log line, a header or a URL.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// wrap puts the request's identifier on the response before next runs: the
// inbound one when it is well-formed (its header slice is reused as is), a
// minted one otherwise. Handlers that fan out read it back with requestID.
func (ids *requestIDs) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header[requestIDHeader]
		if len(id) != 1 || !validRequestID(id[0]) {
			var buf [40]byte
			b := strconv.AppendUint(append(buf[:0], ids.prefix...), ids.seq.Add(1), 10)
			id = []string{string(b)}
		}
		w.Header()[requestIDHeader] = id
		next.ServeHTTP(w, r)
	})
}

// requestID is the identifier wrap chose for the request w answers.
func requestID(w http.ResponseWriter) []string { return w.Header()[requestIDHeader] }
