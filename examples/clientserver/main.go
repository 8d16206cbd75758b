// Clientserver: the §2.5 deployment end to end in one process — an
// untrusted KNN service is started in-process, clients fingerprint their
// profiles locally and upload only the SHFs, and the server builds the
// graph and answers neighborhood and top-k queries without ever seeing a
// profile.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/privacy"
	"goldfinger/internal/service"
)

func main() {
	// The untrusted server: knows the scheme parameters, never the data.
	srv, err := service.NewServer(1024)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The clients: a Gowalla-shaped population, fingerprinting locally.
	d := dataset.Generate(dataset.Gowalla, 0.01, 5)
	scheme := core.MustScheme(1024, 5)
	for i, p := range d.Profiles {
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
			fmt.Println("error:", err)
			return
		}
		req, err := http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/users/u%d/fingerprint", ts.URL, i), &buf)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		resp.Body.Close()
	}
	fmt.Printf("uploaded %d fingerprints (%d bits each)\n", d.NumUsers(), 1024)

	report := privacy.Assess(d.Name, d.Profiles, d.NumItems, scheme)
	fmt.Printf("what the server cannot learn: %s\n", report)

	// Server side: build the graph from fingerprints alone.
	resp, err := http.Post(ts.URL+"/graph/build?k=5", "", nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var build service.BuildResult
	if err := json.NewDecoder(resp.Body).Decode(&build); err != nil {
		fmt.Println("error:", err)
		return
	}
	resp.Body.Close()
	fmt.Printf("server built a %d-NN graph over %d users with %d similarity computations\n",
		build.K, build.Users, build.Comparisons)

	// A client asks for its neighborhood.
	nresp, err := http.Get(ts.URL + "/users/u0/neighbors")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var nbrs []service.NeighborJSON
	if err := json.NewDecoder(nresp.Body).Decode(&nbrs); err != nil {
		fmt.Println("error:", err)
		return
	}
	nresp.Body.Close()
	fmt.Println("u0's neighbors (by estimated Jaccard):")
	for _, nb := range nbrs {
		fmt.Printf("  %-6s Ĵ=%.3f\n", nb.User, nb.Similarity)
	}

	// An ad-hoc top-k query under a client-chosen deadline: the
	// X-Request-Timeout header lowers this request's deadline below the
	// server's per-class default. If the server is too loaded to answer
	// within it, the query comes back 503 with a Retry-After instead of
	// making the client wait — that is the admission layer's contract.
	var qbuf bytes.Buffer
	if err := core.WriteFingerprint(&qbuf, scheme.Fingerprint(d.Profiles[0])); err != nil {
		fmt.Println("error:", err)
		return
	}
	qreq, err := http.NewRequest(http.MethodPost, ts.URL+"/query?k=3", &qbuf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	qreq.Header.Set(service.HeaderRequestTimeout, "2s")
	qresp, err := http.DefaultClient.Do(qreq)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		fmt.Printf("query rejected: %d (Retry-After: %s)\n", qresp.StatusCode, qresp.Header.Get("Retry-After"))
		return
	}
	var top []service.NeighborJSON
	if err := json.NewDecoder(qresp.Body).Decode(&top); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("top-3 for an ad-hoc fingerprint (2s client deadline):")
	for _, nb := range top {
		fmt.Printf("  %-6s Ĵ=%.3f\n", nb.User, nb.Similarity)
	}
}
