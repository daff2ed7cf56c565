package main

// spanClientBatch names the client span of a /recommend/batch request.
const spanClientBatch = "client_batch"

// blockingPath names the spans a single-user request with one attempt
// passes through exactly once, below its client span.
var blockingPath = []string{spanRouter, spanAttempt, spanServer, spanEngine, spanSimcache, spanUtilities}

// pathTolerance is how far the median path-sum ratio may stray from 1.
const pathTolerance = 0.05

// layerTimes are per-layer self times recovered from recorded spans, in ns.
type layerTimes struct {
	clientSelf, routerSelf, hop, serverSelf dist // single-user requests
	engine, topnSelf, simcacheSelf          dist // every engine call
	similarity, utilities                   dist
	// pathRatio is, per single-user request with one attempt, the sum of
	// the self times along the blocking path over the client span.
	pathRatio dist
	// pathGaps counts single-user requests with one attempt whose tree
	// lacks a layer of the blocking path: a lost span would otherwise
	// hand its time to its parent's self time unnoticed.
	pathGaps                int
	singles, singleAttempts int
	batches, batchAttempts  int
	serverCalls             int
	simLookups, simComputes int
}

// analyze rebuilds each request's span tree and computes every layer's
// self time: its span minus the union of its children's spans.
func analyze(spans []span) *layerTimes {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ivs := func(ss []span) [][2]int64 {
		out := make([][2]int64, len(ss))
		for i, s := range ss {
			out[i] = [2]int64{s.Start, s.End}
		}
		return out
	}
	self := func(s span) float64 { return float64(selfTime(s.Start, s.End, ivs(children[s.ID]))) }
	lt := &layerTimes{}
	for _, root := range spans {
		if root.Parent != 0 || (root.Name != spanClient && root.Name != spanClientBatch) {
			continue
		}
		single := root.Name == spanClient
		path := 0.0
		attempts := 0
		// seen counts the blocking path's spans under this request.
		seen := map[string]int{}
		if single {
			lt.singles++
			cs := self(root)
			lt.clientSelf.add(cs)
			path += cs
		} else {
			lt.batches++
		}
		for _, rt := range children[root.ID] {
			seen[rt.Name]++
			if single {
				rs := self(rt)
				lt.routerSelf.add(rs)
				path += rs
			}
			for _, at := range children[rt.ID] {
				attempts++
				seen[at.Name]++
				hs := self(at)
				if single {
					lt.hop.add(hs)
					path += hs
				}
				for _, sv := range children[at.ID] {
					lt.serverCalls++
					seen[sv.Name]++
					ss := self(sv)
					if single {
						lt.serverSelf.add(ss)
						path += ss
					}
					for _, en := range children[sv.ID] {
						seen[en.Name]++
						lt.engine.add(float64(en.dur()))
						ts := self(en)
						lt.topnSelf.add(ts)
						path += ts
						for _, part := range children[en.ID] {
							seen[part.Name]++
							switch part.Name {
							case spanUtilities:
								lt.utilities.add(float64(part.dur()))
								path += float64(part.dur())
							case spanSimcache:
								lt.simLookups++
								lt.simcacheSelf.add(self(part))
								path += self(part)
								for _, sim := range children[part.ID] {
									lt.simComputes++
									lt.similarity.add(float64(sim.dur()))
									path += float64(sim.dur())
								}
							}
						}
					}
				}
			}
		}
		if single {
			lt.singleAttempts += attempts
			if attempts == 1 && root.dur() > 0 {
				lt.pathRatio.add(path / float64(root.dur()))
				for _, name := range blockingPath {
					if seen[name] != 1 {
						lt.pathGaps++
						break
					}
				}
			}
		} else {
			lt.batchAttempts += attempts
		}
	}
	return lt
}
