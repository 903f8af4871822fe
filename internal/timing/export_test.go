package timing

// SetGapStreamShape sets the shape of the gap stream a test sees, chunk
// length and chunks per stream, and drops the retained stream. It
// returns a function that restores the old shape, again with no stream
// retained.
func SetGapStreamShape(chunkLen, chunks int) (restore func()) {
	retained.mu.Lock()
	defer retained.mu.Unlock()
	old := [2]int{gapChunkLen, gapStreamChunks}
	gapChunkLen, gapStreamChunks = chunkLen, chunks
	retained.s = nil
	return func() {
		retained.mu.Lock()
		defer retained.mu.Unlock()
		gapChunkLen, gapStreamChunks = old[0], old[1]
		retained.s = nil
	}
}
