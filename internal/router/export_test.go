package router

// RouteNames exposes route to the external cluster tests: the names of the
// primary and fallback shards a request for id goes to under the
// installed ring ("" for none), and whether a mutation of it is fenced.
func (r *Router) RouteNames(id string, mutation bool) (primary, fallback string, fenced bool) {
	p, f, fenced := r.ring.Load().route(id, mutation)
	if p != nil {
		primary = p.spec.Name
	}
	if f != nil {
		fallback = f.spec.Name
	}
	return primary, fallback, fenced
}
