package platform

import (
	"time"

	"repro/internal/permissions"
)

// Slash-command interactions. The prefix-command model the paper
// studies gives the platform no idea which user asked a bot to act —
// the root cause of re-delegation (§5). Discord's later "interactions"
// model changes that: a command invocation is a first-class platform
// object carrying the invoking user, which bots (and a runtime
// enforcer) can attribute actions to exactly. This file models that
// evolution so the enforcer's heuristic and exact modes can be
// compared.

// Interaction is one slash-command invocation of a bot by a user.
type Interaction struct {
	ID        ID
	GuildID   ID
	ChannelID ID
	UserID    ID // the invoking user — the context prefix commands lack
	BotID     ID
	Command   string
	Args      string
	At        time.Time

	responded bool
}

// EventInteractionCreate is dispatched to the target bot's gateway
// session when a user invokes one of its commands.
const EventInteractionCreate EventType = "INTERACTION_CREATE"

// Interact invokes a slash command on a bot. The invoking user needs
// view-channel and send-messages in the channel (the "use application
// commands" surface); the bot must be a guild member.
func (p *Platform) Interact(userID, botID, channelID ID, command, args string) (*Interaction, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return nil, err
	}
	if ch.Kind != ChannelText {
		return nil, ErrWrongChannelKind
	}
	bot, ok := p.users[botID]
	if !ok {
		return nil, ErrNotFound
	}
	if !bot.IsBot() {
		return nil, ErrNotBot
	}
	if _, ok := g.Members[botID]; !ok {
		return nil, ErrNotMember
	}
	need := permissions.ViewChannel | permissions.SendMessages
	if err := p.requireChannelLocked(g, ch, userID, need); err != nil {
		return nil, err
	}
	in := &Interaction{
		ID: p.ids.Next(), GuildID: g.ID, ChannelID: channelID,
		UserID: userID, BotID: botID, Command: command, Args: args, At: p.now(),
	}
	if g.interactions == nil {
		g.interactions = make(map[ID]*Interaction)
	}
	g.interactions[in.ID] = in
	p.publishLocked(Event{
		Type: EventInteractionCreate, GuildID: g.ID, ChannelID: channelID,
		UserID: userID, Interaction: in, At: in.At,
	})
	return in, nil
}

// InteractionByID resolves a stored interaction within a guild.
func (p *Platform) InteractionByID(guildID, interactionID ID) (*Interaction, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return nil, ErrNotFound
	}
	in, ok := g.interactions[interactionID]
	if !ok {
		return nil, ErrNotFound
	}
	cp := *in
	return &cp, nil
}

// RespondInteraction posts the bot's reply to an interaction. Only the
// targeted bot may respond, and only once. Like Discord, interaction
// replies bypass channel send-permission overwrites: the user invited
// the response.
func (p *Platform) RespondInteraction(botID, guildID, interactionID ID, content string) (*Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return nil, ErrNotFound
	}
	in, ok := g.interactions[interactionID]
	if !ok {
		return nil, ErrNotFound
	}
	if in.BotID != botID {
		return nil, ErrPermissionDenied
	}
	if in.responded {
		return nil, ErrAlreadyResponded
	}
	ch, ok := g.Channels[in.ChannelID]
	if !ok {
		return nil, ErrNotFound
	}
	if content == "" {
		return nil, ErrEmptyContent
	}
	in.responded = true
	return p.postLocked(ch, botID, content, nil), nil
}
