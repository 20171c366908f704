// Fixtures for the noallochotpath analyzer, server side: the shard
// request loop and the store's chain walks must reuse loop-owned
// scratch; growing a receiver field behind a cap check is amortized and
// allowed, per-op locals are not.
package server

type Response struct{ Status byte }

type request struct{ code byte }

type store struct {
	keyScratch []byte
}

// find is hot: growing the receiver-owned scratch field is allowed.
//
//pmlint:hot
func (st *store) find(key []byte) bool {
	if cap(st.keyScratch) < len(key) {
		st.keyScratch = make([]byte, len(key)) // field growth behind a cap check: amortized
	}
	st.keyScratch = append(st.keyScratch[:0], key...)
	return len(st.keyScratch) == len(key)
}

// get is hot: a per-call copy into a fresh slice flags twice.
//
//pmlint:hot
func (st *store) get(key []byte) []byte {
	if !st.find(key) {
		return nil
	}
	out := make([]byte, len(key)) // want "make\\(\\) into a local inside hot function store.get"
	copy(out, key)
	return append([]byte{}, out...) // want "append onto a freshly allocated slice inside hot function store.get"
}

type shard struct {
	st    *store
	batch []*request
	resps []Response
}

// collect is hot: appending onto the reused batch slice is the sanctioned
// shape.
//
//pmlint:hot
func (sh *shard) collect(first *request) []*request {
	batch := append(sh.batch[:0], first)
	sh.batch = batch
	return batch
}

// runBatch is hot: the resps grow path targets a field (allowed); the
// shadowing local make flags.
//
//pmlint:hot
func (sh *shard) runBatch(batch []*request) {
	if cap(sh.resps) < len(batch) {
		sh.resps = make([]Response, len(batch))
	}
	local := make([]Response, len(batch)) // want "make\\(\\) into a local inside hot function shard.runBatch"
	_ = local
	for _, r := range batch {
		sh.apply(r)
	}
}

// apply is hot; a waiver silences a deliberate cold allocation.
//
//pmlint:hot
func (sh *shard) apply(r *request) Response {
	if r.code == 0xff {
		//pmlint:allow noallochotpath
		msg := make([]byte, 64) // error path, cold by construction
		_ = msg
	}
	return Response{}
}

// snapshot is cold: stats assembly may allocate freely.
func (sh *shard) snapshot() []Response {
	out := make([]Response, len(sh.resps))
	copy(out, sh.resps)
	return out
}

// publish and publishUnmarked are the annotation pair: the same
// violating body is flagged under the directive and silent without it,
// whatever the function is called.
//
//pmlint:hot
func (sh *shard) publish() []Response {
	out := make([]Response, len(sh.resps)) // want "make\\(\\) into a local inside hot function shard.publish"
	return out
}

func (sh *shard) publishUnmarked() []Response {
	out := make([]Response, len(sh.resps))
	return out
}
