package server

import (
	"bytes"
	"io"
	"net/http"
	"time"

	"jmtam/api"
	"jmtam/internal/tracestore"
)

// blobGet serves one key of a fleet tier's local store — a compacted
// recording or a result document — to a peer daemon. Responses carry
// ETag = key (content addresses never change, so If-None-Match is a
// free revalidation) and go through http.ServeContent, which honors
// Range requests: a peer can resume an interrupted fetch mid-stream. A
// nil tier (the result cache turned off) answers 404.
func (s *Server) blobGet(tier *tracestore.Fleet, noun, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tier == nil {
			writeError(w, http.StatusNotFound, api.CodeNotFound, noun+" cache disabled")
			return
		}
		key := r.PathValue("key")
		if !tracestore.ValidKey(key) {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "malformed "+noun+" key")
			return
		}
		data, ok := tier.Store().Get(key)
		if !ok {
			writeError(w, http.StatusNotFound, api.CodeNotFound, "no such "+noun)
			return
		}
		w.Header().Set("ETag", `"`+key+`"`)
		w.Header().Set("Content-Type", contentType)
		http.ServeContent(w, r, key, time.Time{}, bytes.NewReader(data))
	}
}

// blobPut accepts a blob a peer pushes into a fleet tier. The payload
// must pass the tier's own check, the one its peer fetches run; the
// key is taken on trust — it addresses the run descriptor or the
// normalized request, not the bytes, and peers within a fleet derive
// it identically.
func (s *Server) blobPut(tier *tracestore.Fleet, noun string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tier == nil {
			writeError(w, http.StatusNotFound, api.CodeNotFound, noun+" cache disabled")
			return
		}
		key := r.PathValue("key")
		if !tracestore.ValidKey(key) {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "malformed "+noun+" key")
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRecordingBytes))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge, err.Error())
			return
		}
		if err := tier.Validate(data); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
		if err := tier.Store().Put(key, data); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
		s.metrics.Count(tier.Prefix()+".push.received", 1)
		w.WriteHeader(http.StatusNoContent)
	}
}
