package platform

import (
	"sort"
	"time"
)

// historyChunk is how many messages one chunk of a channel's history
// holds. Busy channels keep every message, so storage goes in
// fixed-size chunks rather than one ever-doubling slice: appending
// never copies more than one chunk, and a full chunk carries no slack.
const historyChunk = 256

// storedMessage is one message as a channel's history keeps it: a
// value record without the channel and guild IDs, which the Channel
// already holds. Attachments are rare and live in history.atts.
type storedMessage struct {
	id      ID
	author  ID // Nil once the message is deleted
	content string
	at      time.Time
}

// history is a text channel's append-only message store. Every chunk
// but the last holds exactly historyChunk messages. The first chunk
// grows by append, so a channel with one message pays for one record,
// not a chunk. Messages are appended under the platform write lock
// with IDs from a monotonic source, so records are in ID order and
// lookups by ID binary-search. DeleteMessage leaves a tombstone in
// place.
type history struct {
	chunks [][]storedMessage
	live   int // records not deleted
	atts   map[ID][]Attachment
}

// add appends a message to the store.
func (h *history) add(m *Message) {
	n := len(h.chunks)
	if n == 0 || len(h.chunks[n-1]) == historyChunk {
		var c []storedMessage
		if n > 0 {
			// A channel that filled a chunk is busy: later chunks
			// are allocated whole.
			c = make([]storedMessage, 0, historyChunk)
		}
		h.chunks = append(h.chunks, c)
		n++
	}
	h.chunks[n-1] = append(h.chunks[n-1], storedMessage{id: m.ID, author: m.AuthorID, content: m.Content, at: m.Timestamp})
	h.live++
	if len(m.Attachments) > 0 {
		if h.atts == nil {
			h.atts = make(map[ID][]Attachment)
		}
		h.atts[m.ID] = append([]Attachment(nil), m.Attachments...)
	}
}

// len is the number of records, tombstones included.
func (h *history) len() int {
	n := len(h.chunks)
	if n == 0 {
		return 0
	}
	return (n-1)*historyChunk + len(h.chunks[n-1])
}

func (h *history) at(i int) *storedMessage {
	return &h.chunks[i/historyChunk][i%historyChunk]
}

// find returns the index of the live message with the given ID.
func (h *history) find(id ID) (int, bool) {
	n := h.len()
	i := sort.Search(n, func(i int) bool { return h.at(i).id >= id })
	if i == n || h.at(i).id != id || h.at(i).author == Nil {
		return 0, false
	}
	return i, true
}

// remove turns record i into a tombstone, releasing its content.
func (h *history) remove(i int) {
	r := h.at(i)
	delete(h.atts, r.id)
	*r = storedMessage{id: r.id}
	h.live--
}

// messages returns copies of the most recent limit live messages
// (every live message when limit <= 0), oldest first.
func (h *history) messages(ch *Channel, limit int) []*Message {
	k := h.live
	if limit > 0 && k > limit {
		k = limit
	}
	vals := make([]Message, k)
	out := make([]*Message, k)
	for i, j := h.len()-1, k-1; j >= 0; i-- {
		r := h.at(i)
		if r.author == Nil {
			continue
		}
		vals[j] = Message{
			ID: r.id, ChannelID: ch.ID, GuildID: ch.GuildID,
			AuthorID: r.author, Content: r.content, Timestamp: r.at,
		}
		if atts := h.atts[r.id]; len(atts) > 0 {
			vals[j].Attachments = append([]Attachment(nil), atts...)
		}
		out[j] = &vals[j]
		j--
	}
	return out
}

// attachment looks up an attachment of a live message; remove drops a
// deleted message's attachments.
func (h *history) attachment(messageID, attachmentID ID) (Attachment, bool) {
	for _, a := range h.atts[messageID] {
		if a.ID == attachmentID {
			return a, true
		}
	}
	return Attachment{}, false
}
