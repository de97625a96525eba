package ring

import "repro/internal/transport"

// The ring's methods register their own request and reply types; listed here
// are the types no method names.
func init() {
	transport.RegisterMessage(Node{})
	transport.RegisterMessage(Entry{})
	transport.RegisterMessage([]Entry(nil))
}
