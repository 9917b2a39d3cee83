package platform

import "repro/internal/permissions"

// SendMessage posts a message to a text channel on behalf of actorID.
// Requires view-channel and send-messages in the channel, plus
// attach-files when attachments are present. Returns the stored message.
func (p *Platform) SendMessage(actorID, channelID ID, content string, atts ...Attachment) (*Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return nil, err
	}
	if ch.Kind != ChannelText {
		return nil, ErrWrongChannelKind
	}
	if content == "" && len(atts) == 0 {
		return nil, ErrEmptyContent
	}
	need := permissions.ViewChannel | permissions.SendMessages
	if len(atts) > 0 {
		need |= permissions.AttachFiles
	}
	if err := p.requireChannelLocked(g, ch, actorID, need); err != nil {
		return nil, err
	}
	msg := p.postLocked(ch, actorID, content, atts)
	p.cMessages.Inc()
	return msg, nil
}

// postLocked stores a new message in a text channel's history and
// publishes its MESSAGE_CREATE event; every message enters history
// here. Callers hold p.mu and have done their permission checks. The
// returned message is the caller's own copy.
func (p *Platform) postLocked(ch *Channel, authorID ID, content string, atts []Attachment) *Message {
	msg := &Message{
		ID:        p.ids.Next(),
		ChannelID: ch.ID,
		GuildID:   ch.GuildID,
		AuthorID:  authorID,
		Content:   content,
		Timestamp: p.now(),
	}
	for _, a := range atts {
		a.ID = p.ids.Next()
		msg.Attachments = append(msg.Attachments, a)
	}
	ch.history.add(msg)
	p.publishLocked(Event{
		Type: EventMessageCreate, GuildID: ch.GuildID, ChannelID: ch.ID,
		UserID: authorID, Message: msg, At: msg.Timestamp,
	})
	return msg
}

// History returns up to limit most-recent messages, oldest first, as
// fresh copies: changing one does not change the stored history.
// Requires view-channel and read-message-history.
func (p *Platform) History(actorID, channelID ID, limit int) ([]*Message, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return nil, err
	}
	if ch.Kind != ChannelText {
		return nil, ErrWrongChannelKind
	}
	need := permissions.ViewChannel | permissions.ReadMessageHistory
	if err := p.requireChannelLocked(g, ch, actorID, need); err != nil {
		return nil, err
	}
	return ch.history.messages(ch, limit), nil
}

// DeleteMessage removes a message. Authors may delete their own;
// otherwise manage-messages is required.
func (p *Platform) DeleteMessage(actorID, channelID, messageID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return err
	}
	i, ok := ch.history.find(messageID)
	if !ok {
		return ErrNotFound
	}
	if ch.history.at(i).author != actorID {
		if err := p.requireChannelLocked(g, ch, actorID, permissions.ManageMessages); err != nil {
			return err
		}
	}
	ch.history.remove(i)
	p.auditLocked(g.ID, actorID, "message.delete", messageID.String(), "")
	return nil
}

// Attachment fetches a posted attachment by message and attachment ID.
// Requires view-channel; the paper's canary documents are retrieved this
// way by bots before being "opened".
func (p *Platform) Attachment(actorID, channelID, messageID, attachmentID ID) (*Attachment, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return nil, err
	}
	if err := p.requireChannelLocked(g, ch, actorID, permissions.ViewChannel); err != nil {
		return nil, err
	}
	a, ok := ch.history.attachment(messageID, attachmentID)
	if !ok {
		return nil, ErrNotFound
	}
	return &a, nil
}
