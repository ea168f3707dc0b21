package jobq

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
)

// maxBodyBytes bounds POST /jobs request bodies — grids are small; a
// longer body is answered 413, not cut to its first megabyte.
const maxBodyBytes = 1 << 20

// API is the job HTTP surface, mounted on the observability mux:
//
//	POST   /jobs              submit a grid (wire JSON), returns the job
//	GET    /jobs              list job statuses
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/result  the finished run file (byte-stable JSON)
//	GET    /jobs/{id}/events  NDJSON progress stream until terminal
//	DELETE /jobs/{id}         cancel
//
// Routing is by hand (go.mod predates method/wildcard mux patterns).
type API struct {
	mgr *Manager
}

// NewAPI wraps a manager.
func NewAPI(m *Manager) *API { return &API{mgr: m} }

// Mount registers the job routes on the observability server.
func (a *API) Mount(s *obs.Server) {
	s.Handle("/jobs", http.HandlerFunc(a.handleJobs))
	s.Handle("/jobs/", http.HandlerFunc(a.handleJob))
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

func (a *API) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		a.submit(w, r)
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a.mgr.Statuses()) //nolint:errcheck
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("use POST to submit, GET to list"))
	}
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	g, err := sweep.DecodeGrid(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := a.mgr.Submit(g, r.URL.Query().Get("label"))
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/jobs/"+j.ID)
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(j.Status()) //nolint:errcheck
}

func (a *API) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	j, err := a.mgr.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(j.Status()) //nolint:errcheck
	case sub == "" && r.Method == http.MethodDelete:
		j.Cancel()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(j.Status()) //nolint:errcheck
	case sub == "result" && r.Method == http.MethodGet:
		a.result(w, id)
	case sub == "events" && r.Method == http.MethodGet:
		a.events(w, r, j)
	default:
		httpError(w, http.StatusNotFound, errors.New("jobq: unknown job endpoint"))
	}
}

// result serves the finished run file. The bytes are sweep.Encode
// output, a pure function of the submitted grid,
// byte-identical across cache states, worker counts, and daemons. They
// are assembled per request from the cells' stored fragments — a copy,
// not a marshal — and sent with their length, so a retained job keeps
// no encoded result and the client reads no chunk framing.
func (a *API) result(w http.ResponseWriter, id string) {
	rf, err := a.mgr.Result(id)
	if err != nil {
		var nd NotDoneError
		code := http.StatusNotFound
		if errors.As(err, &nd) {
			switch nd.State {
			case StateFailed:
				code = http.StatusInternalServerError
			case StateCanceled:
				code = http.StatusGone
			default: // queued, running
				code = http.StatusConflict
			}
		}
		httpError(w, code, err)
		return
	}
	data, err := sweep.Encode(rf)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data) //nolint:errcheck
}

// events streams the job's progress as NDJSON until the job reaches a
// terminal state or the client disconnects. On normal completion the
// tracker writes its last line when every cell is terminal, a moment
// before run publishes the job's own state; the response is held open
// until it has, so the status read a client makes after EOF never sees
// "running". The merged done channel covers jobs that never start or
// stop early — canceled while queued or running, cells left
// non-terminal — so a follower is never left hanging; the stream's last
// lines are the tracker's state when the job ended.
func (a *API) events(w http.ResponseWriter, r *http.Request, j *Job) {
	interval := 250 * time.Millisecond
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && ms > 0 {
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-r.Context().Done():
		case <-j.Done():
		}
	}()
	j.Progress().StreamNDJSON(w, interval, done) //nolint:errcheck // client gone
	select {
	case <-j.Done():
	case <-r.Context().Done():
	}
}
