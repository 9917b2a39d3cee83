package platform

import "sort"

// IsMember reports whether the user belongs to the guild.
func (p *Platform) IsMember(guildID, userID ID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return false
	}
	_, ok = g.Members[userID]
	return ok
}

// ChannelInfo is a read-only channel summary for gateway consumers.
type ChannelInfo struct {
	ID   ID
	Name string
	Kind ChannelKind
}

// GuildInfo is a read-only guild summary for gateway consumers.
type GuildInfo struct {
	ID       ID
	Name     string
	OwnerID  ID
	Private  bool
	Members  int
	Channels []ChannelInfo
}

// GuildSummary returns a read-only snapshot of a guild the user belongs
// to.
func (p *Platform) GuildSummary(guildID, userID ID) (GuildInfo, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return GuildInfo{}, ErrNotFound
	}
	if _, ok := g.Members[userID]; !ok {
		return GuildInfo{}, ErrNotMember
	}
	info := GuildInfo{ID: g.ID, Name: g.Name, OwnerID: g.OwnerID, Private: g.Private, Members: len(g.Members)}
	for _, ch := range g.Channels {
		info.Channels = append(info.Channels, ChannelInfo{ID: ch.ID, Name: ch.Name, Kind: ch.Kind})
	}
	sort.Slice(info.Channels, func(i, j int) bool { return info.Channels[i].ID < info.Channels[j].ID })
	return info, nil
}

// ChannelMessages returns copies of every message in a channel, oldest
// first, without a permission check — trusted internal access for
// experiment forensics, the counterpart of AuditLog's Nil-actor path.
func (p *Platform) ChannelMessages(channelID ID) ([]*Message, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ch, _, err := p.channelLocked(channelID)
	if err != nil {
		return nil, err
	}
	return ch.history.messages(ch, 0), nil
}

// MemberCount returns the number of members in a guild.
func (p *Platform) MemberCount(guildID ID) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return 0
	}
	return len(g.Members)
}
