package platform

import (
	"time"

	"repro/internal/permissions"
)

// UserKind distinguishes the two account classes the paper's §4.1
// describes: normal users and bot users owned by a normal user.
type UserKind int

// User kinds.
const (
	KindNormal UserKind = iota
	KindBot
)

func (k UserKind) String() string {
	if k == KindBot {
		return "bot"
	}
	return "normal"
}

// User is a platform account. Bot accounts carry the ID of the normal
// user that owns them and authenticate with a token.
type User struct {
	ID            ID
	Name          string
	Discriminator string // e.g. "6714" in "editid#6714"
	Kind          UserKind
	Email         string
	OwnerID       ID     // for bots: the owning normal user
	Token         string // for bots: gateway/REST credential
	Verified      bool   // mobile-verified; joining many guilds quickly requires it
	CreatedAt     time.Time
}

// Tag renders the user the way Discord shows it, e.g. "editid#6714".
func (u *User) Tag() string { return u.Name + "#" + u.Discriminator }

// IsBot reports whether the account is a chatbot.
func (u *User) IsBot() bool { return u.Kind == KindBot }

// Role is a named permission bundle within a guild. Position 0 is the
// implicit @everyone role every member holds.
type Role struct {
	ID       ID
	GuildID  ID
	Name     string
	Position permissions.RolePosition
	Perms    permissions.Permission
	Managed  bool // created automatically for an installed bot
}

// OverwriteKind says whether a channel overwrite targets a role or a
// specific member.
type OverwriteKind int

// Overwrite kinds.
const (
	OverwriteRole OverwriteKind = iota
	OverwriteMember
)

// Overwrite adjusts channel-level permissions for a role or member.
// Deny is applied before Allow, as on Discord.
type Overwrite struct {
	Kind     OverwriteKind
	TargetID ID // role or user ID
	Allow    permissions.Permission
	Deny     permissions.Permission
}

// ChannelKind distinguishes text and voice channels.
type ChannelKind int

// Channel kinds.
const (
	ChannelText ChannelKind = iota
	ChannelVoice
)

func (k ChannelKind) String() string {
	if k == ChannelVoice {
		return "voice"
	}
	return "text"
}

// Channel is a guild text or voice channel. A text channel's messages
// are stored compactly inside it and read through History or
// ChannelMessages, which return copies.
type Channel struct {
	ID         ID
	GuildID    ID
	Name       string
	Kind       ChannelKind
	Overwrites []Overwrite

	history history // text channels only, append-ordered
}

// Member is a user's membership record within one guild.
type Member struct {
	UserID   ID
	Nick     string
	RoleIDs  []ID // excluding the implicit @everyone role
	JoinedAt time.Time
}

// Guild is a server: a role list, channels, and members. Private guilds
// require an invite to join (paper §4.1).
type Guild struct {
	ID       ID
	Name     string
	OwnerID  ID
	Private  bool
	Roles    map[ID]*Role
	Channels map[ID]*Channel
	Members  map[ID]*Member
	Banned   map[ID]bool

	everyoneRole ID
	voice        map[ID]*VoiceState
	interactions map[ID]*Interaction
}

// EveryoneRoleID returns the ID of the guild's implicit @everyone role.
func (g *Guild) EveryoneRoleID() ID { return g.everyoneRole }

// Attachment is a file posted with a message. Data is held inline; the
// canary experiments post small DOCX/PDF artifacts.
type Attachment struct {
	ID          ID
	Filename    string
	ContentType string
	Data        []byte
}

// Message is a text-channel message.
type Message struct {
	ID          ID
	ChannelID   ID
	GuildID     ID
	AuthorID    ID
	Content     string
	Attachments []Attachment
	Timestamp   time.Time
}

// AuditEntry records a privileged platform action for later forensics —
// the honeypot uses it to corroborate canary triggers.
type AuditEntry struct {
	At      time.Time
	GuildID ID
	ActorID ID
	Action  string
	Target  string
	Detail  string
}
