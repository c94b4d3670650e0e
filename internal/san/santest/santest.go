// Package santest provides a san.Codec for the tests of packages that
// the production codec (internal/stub) imports and so cannot import.
package santest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

// Codec gob-encodes bodies of any type with exported fields; each kind
// carries a single body type. Nothing aliases the wire bytes. Give
// each network its own &Codec{}.
type Codec struct {
	// kinds maps a message kind to the body type last encoded under
	// it. On one network every delivery is encoded before it is
	// decoded.
	kinds sync.Map // kind -> reflect.Type
}

// AppendBody implements san.Codec.
func (c *Codec) AppendBody(dst []byte, kind string, body any) ([]byte, error) {
	c.kinds.Store(kind, reflect.TypeOf(body))
	buf := bytes.NewBuffer(dst)
	err := gob.NewEncoder(buf).Encode(body)
	return buf.Bytes(), err
}

// DecodeBodyView implements san.Codec.
func (c *Codec) DecodeBodyView(kind string, data []byte) (any, bool, error) {
	t, ok := c.kinds.Load(kind)
	if !ok {
		return nil, false, fmt.Errorf("santest: no body type for kind %q", kind)
	}
	v := reflect.New(t.(reflect.Type))
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(v.Interface())
	return v.Elem().Interface(), false, err
}
