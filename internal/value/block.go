package value

// Block decodes the strings, items and tuples of one payload out of one
// copy of it, for a value that is read whole and kept whole: a reply
// frame. Reset copies nothing. The first non-empty string copies the
// payload once, and every string decoded after it is a substring of that
// copy. A tuple's fields are a capped sub-slice of an item block that the
// payload's tuples share, so a reply of many tuples costs one item block,
// not one field slice and one string per tuple. The values are immutable,
// so sharing is safe, as a version shares the pages it did not change.
//
// Whatever a Block decodes keeps its copy and its item block alive: one
// tuple kept from a large reply keeps the whole reply's bytes. A tuple that
// enters a long-lived relation version is decoded with DecodeTuple, which
// copies each tuple on its own.
//
// Every buf handed to a Block's methods must be a suffix of the payload
// given to Reset (the rest a previous decode returned, or a slice further
// along it): a string is found in the copy by its distance from the
// payload's end. The copy never aliases the payload.
type Block struct {
	src    []byte // the payload
	copied string // the payload's one copy, made at the first non-empty string
	items  []Item // room left in the current item block
}

// Reset makes b decode payload, forgetting the previous payload's copy and
// item block (the values decoded from them stay valid).
func (b *Block) Reset(payload []byte) { *b = Block{src: payload} }

// String decodes one length-prefixed string from the front of buf, as a
// substring of the payload's copy.
func (b *Block) String(buf []byte) (string, []byte, error) {
	b.at(buf)
	s, rest, err := DecodeStringBytes(buf)
	if err != nil {
		return "", buf, err
	}
	return b.str(s, rest), rest, nil
}

// Item decodes one item from the front of buf; a string item's text is a
// substring of the payload's copy.
func (b *Block) Item(buf []byte) (Item, []byte, error) {
	b.at(buf)
	it, s, rest, err := decodeItem(buf)
	if it.kind == KindString {
		it.s = b.str(s, rest)
	}
	return it, rest, err
}

// Tuple decodes one tuple from the front of buf. Its fields are a capped
// sub-slice of the item block, so appending to them can never reach a
// neighbour's. n is how many tuples the caller expects to decode from here
// on, this one included, as counted on the wire: when the item block has
// no room for this tuple, the next one is sized for n tuples of its arity,
// but never for more items than the rest of buf could hold.
func (b *Block) Tuple(buf []byte, n int) (Tuple, []byte, error) {
	b.at(buf)
	arity, rest, err := decodeArity(buf)
	if err != nil {
		return Tuple{}, buf, err
	}
	if len(b.items) < arity {
		room := len(rest) / 2 // decodeArity: arity <= room
		size := room
		if n <= room/arity {
			size = max(n, 1) * arity
		}
		b.items = make([]Item, size)
	}
	fields := b.items[:arity:arity]
	b.items = b.items[arity:]
	for i := range fields {
		if fields[i], rest, err = b.Item(rest); err != nil {
			return Tuple{}, rest, err
		}
	}
	return Tuple{fields: fields}, rest, nil
}

// str returns s, the bytes just ahead of rest in the payload, as a
// substring of the payload's copy, making the copy on first use.
func (b *Block) str(s, rest []byte) string {
	if len(s) == 0 {
		return ""
	}
	if b.copied == "" {
		b.copied = string(b.src)
	}
	end := len(b.src) - len(rest)
	return b.copied[end-len(s) : end]
}

// at panics unless buf is a suffix of the payload, which only a caller's
// bug can break.
func (b *Block) at(buf []byte) {
	if len(buf) > len(b.src) || len(buf) > 0 && &buf[0] != &b.src[len(b.src)-len(buf)] {
		panic("value: Block: buffer is not a suffix of the payload")
	}
}
