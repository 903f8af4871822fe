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

// KernelFingerprint is a sha256 over the answers KernelVersion names:
// every uint64 statistic of each named config over each test-scale
// workload, and the rendered bodies of a fixed simulate and sweep
// request (internal/serve's TestKernelFingerprint computes it). A change
// that moves it bumps KernelVersion and sets the new fingerprint in the
// same edit.
const KernelFingerprint = "87eaa7f13344bdc742e43fb28f3ab8d55fb4cecbee51f4cf5ce122360c7c9107"
