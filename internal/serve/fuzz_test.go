package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hostileELFs name the seeds of the image package's FuzzImageLoad whose
// ELF header edits (e_phoff, e_shoff or one sh_offset just under 2^64)
// once made image.Load panic inside the HTTP handler.
var hostileELFs = []string{"phoff-wrap", "shoff-wrap", "sh-offset-wrap"}

// seedSubmission reads the named FuzzImageLoad seed and wraps its ELF
// bytes in a one-binary submission body.
func seedSubmission(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "image", "testdata", "fuzz", "FuzzImageLoad", name))
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	lit, ok := strings.CutPrefix(lines[min(1, len(lines)-1)], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if lines[0] != "go test fuzz v1" || !ok || !ok2 {
		tb.Fatalf("%s: not a one-value []byte fuzz seed", name)
	}
	elf, err := strconv.Unquote(lit)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	body, err := json.Marshal(Submission{Binaries: []BinarySpec{{Name: name, ELF: []byte(elf)}}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzParseSubmission: for any body, parseSubmission returns requests or
// an error, never a panic, and never both; a body it accepts asks for at
// least one lift. The seeds wrap the hostile ELFs and the weird-edge
// binary they were edited from.
func FuzzParseSubmission(f *testing.F) {
	for _, name := range append([]string{"weird-edge"}, hostileELFs...) {
		f.Add(seedSubmission(f, name))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, reqs, err := parseSubmission(body)
		if err != nil && len(reqs) != 0 {
			t.Fatalf("error %q with %d requests", err, len(reqs))
		}
		if err == nil && len(reqs) == 0 {
			t.Fatal("accepted a submission with nothing to lift")
		}
	})
}

// TestServeRejectsHostileELFs: hgserved answers each hostile ELF with 400
// and a reason, not a dropped connection.
func TestServeRejectsHostileELFs(t *testing.T) {
	e := New(Options{})
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	for _, name := range hostileELFs {
		resp, err := http.Post(srv.URL+"/v1/lift", "application/json", bytes.NewReader(seedSubmission(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var rej RejectBody
		derr := json.NewDecoder(resp.Body).Decode(&rej)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(rej.Error, name) {
			t.Fatalf("%s: status %d, body %+v (%v); want 400 naming the binary", name, resp.StatusCode, rej, derr)
		}
	}
}
