package platform

import "repro/internal/permissions"

// Webhooks. Figure 3 shows ~9% of bots request manage-webhooks; the
// threat model cares because a webhook is an identity-laundering
// channel: whoever holds the webhook token can post into the channel
// with an arbitrary display name, unauthenticated — so a bot that
// creates one can keep posting (or exfiltrating) even after losing its
// own permissions, and messages no longer carry the bot's identity.

// Webhook is a channel-bound posting endpoint.
type Webhook struct {
	ID        ID
	ChannelID ID
	GuildID   ID
	Name      string
	Token     string // bearer credential: possession is authorization
	CreatorID ID
}

// EventWebhookUpdate is dispatched on webhook creation and deletion.
const EventWebhookUpdate EventType = "WEBHOOKS_UPDATE"

// CreateWebhook creates a webhook on a text channel. Requires
// manage-webhooks in that channel.
func (p *Platform) CreateWebhook(actorID, channelID ID, name string) (*Webhook, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return nil, err
	}
	if ch.Kind != ChannelText {
		return nil, ErrWrongChannelKind
	}
	if err := p.requireChannelLocked(g, ch, actorID, permissions.ManageWebhooks); err != nil {
		return nil, err
	}
	wh := &Webhook{
		ID: p.ids.Next(), ChannelID: channelID, GuildID: g.ID,
		Name: name, Token: newToken(), CreatorID: actorID,
	}
	if p.webhooks == nil {
		p.webhooks = make(map[string]*Webhook)
	}
	p.webhooks[wh.Token] = wh
	p.auditLocked(g.ID, actorID, "webhook.create", name, ch.Name)
	p.publishLocked(Event{Type: EventWebhookUpdate, GuildID: g.ID, ChannelID: channelID, UserID: actorID, At: p.now()})
	return wh, nil
}

// DeleteWebhook removes a webhook. Requires manage-webhooks.
func (p *Platform) DeleteWebhook(actorID ID, token string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	wh, ok := p.webhooks[token]
	if !ok {
		return ErrNotFound
	}
	ch, g, err := p.channelLocked(wh.ChannelID)
	if err != nil {
		return err
	}
	if err := p.requireChannelLocked(g, ch, actorID, permissions.ManageWebhooks); err != nil {
		return err
	}
	delete(p.webhooks, token)
	p.auditLocked(g.ID, actorID, "webhook.delete", wh.Name, ch.Name)
	p.publishLocked(Event{Type: EventWebhookUpdate, GuildID: g.ID, ChannelID: wh.ChannelID, UserID: actorID, At: p.now()})
	return nil
}

// ExecuteWebhook posts through a webhook. Deliberately NO account
// authentication and NO permission check: possession of the token is
// the whole credential, exactly the property that makes leaked webhook
// tokens (and webhook-laundering bots) dangerous. The message's
// AuthorID is the webhook's ID, not any user's.
func (p *Platform) ExecuteWebhook(token, displayName, content string) (*Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	wh, ok := p.webhooks[token]
	if !ok {
		return nil, ErrInvalidToken
	}
	if content == "" {
		return nil, ErrEmptyContent
	}
	ch, _, err := p.channelLocked(wh.ChannelID)
	if err != nil {
		return nil, err
	}
	name := displayName
	if name == "" {
		name = wh.Name
	}
	// The author is the webhook's identity, not a user account.
	return p.postLocked(ch, wh.ID, "["+name+"] "+content, nil), nil
}

// WebhooksOf lists a guild's webhooks (manage-webhooks required):
// tokens included, since holders of this permission can read them —
// which is why granting it to a bot is listed among the dangerous
// permissions.
func (p *Platform) WebhooksOf(actorID, guildID ID) ([]*Webhook, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return nil, ErrNotFound
	}
	if err := p.requireLocked(g, actorID, permissions.ManageWebhooks); err != nil {
		return nil, err
	}
	var out []*Webhook
	for _, wh := range p.webhooks {
		if wh.GuildID == guildID {
			cp := *wh
			out = append(out, &cp)
		}
	}
	return out, nil
}
