package jsvm

// Engine maxima, for the external fuzz test's memory bound.
const (
	MaxArrayLength = maxArrayLength
	MaxBufferBytes = maxBufferBytes
)
