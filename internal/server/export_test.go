package server

// SetMaxFrame lowers t's response frame limit from wire.MaxFrameBytes.
func (t *TCPServer) SetMaxFrame(bytes int) { t.maxFrame = bytes }
