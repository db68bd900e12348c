package backend

// StreamBatch is how many records a traced Stream hands its sink's goroutine
// at once.
const StreamBatch = streamBatch
