package core

// KernelVersion names the current generation of the simulation kernel
// and of the response schemas derived from it. It is part of every
// result-cache key (internal/resultcache), so bumping it invalidates all
// previously cached results at lookup time — the entries simply stop
// matching; nothing needs to be deleted.
//
// Bump this whenever a change alters any simulated statistic, the set of
// fields in a response, or the rendered bytes of a response for an
// otherwise identical request. Pure performance work (fusion, pooling)
// that is proven byte-identical does not need a bump.
const KernelVersion = "softcache-kernel/1"
