package platform

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/permissions"
)

// TestRandomOperationInvariants drives long random operation sequences
// against one platform and asserts structural invariants after every
// step. Errors from individual operations are expected (permission
// denials, hierarchy blocks); what must never happen is a broken
// invariant.
func TestRandomOperationInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runInvariantSequence(t, seed, 400)
		})
	}
}

func runInvariantSequence(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	p := New(Options{})
	defer p.Close()

	owner := p.CreateUser("owner")
	p.VerifyUser(owner.ID)
	g, err := p.CreateGuild(owner.ID, "fuzz", false)
	if err != nil {
		t.Fatal(err)
	}
	var channels []ID
	for _, ch := range g.Channels {
		channels = append(channels, ch.ID)
	}
	users := []ID{owner.ID}
	var bots []ID
	var roles []ID

	randUser := func() ID { return users[rng.Intn(len(users))] }
	randPerms := func() permissions.Permission {
		return permissions.Permission(rng.Uint64()) & permissions.All
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 0: // new user joins
			u := p.CreateUser(fmt.Sprintf("u%d", step))
			p.VerifyUser(u.ID)
			if err := p.JoinGuild(u.ID, g.ID); err == nil {
				users = append(users, u.ID)
			}
		case 1: // someone leaves
			p.LeaveGuild(randUser(), g.ID)
		case 2: // role created by random actor
			if r, err := p.CreateRole(randUser(), g.ID, fmt.Sprintf("r%d", step), randPerms(), permissions.RolePosition(1+rng.Intn(10))); err == nil {
				roles = append(roles, r.ID)
			}
		case 3: // role granted
			if len(roles) > 0 {
				p.GrantRole(randUser(), g.ID, randUser(), roles[rng.Intn(len(roles))])
			}
		case 4: // role revoked
			if len(roles) > 0 {
				p.RevokeRole(randUser(), g.ID, randUser(), roles[rng.Intn(len(roles))])
			}
		case 5: // kick attempt
			p.KickMember(randUser(), g.ID, randUser())
		case 6: // ban attempt
			p.BanMember(randUser(), g.ID, randUser())
		case 7: // unban attempt
			p.UnbanMember(randUser(), g.ID, randUser())
		case 8: // message
			p.SendMessage(randUser(), channels[rng.Intn(len(channels))], "fuzz")
		case 9: // bot install
			if b, err := p.RegisterBot(owner.ID, fmt.Sprintf("b%d", step)); err == nil {
				if _, err := p.InstallBot(randUser(), g.ID, b.ID, randPerms()); err == nil {
					bots = append(bots, b.ID)
				}
			}
		case 10: // bot uninstall
			if len(bots) > 0 {
				p.UninstallBot(randUser(), g.ID, bots[rng.Intn(len(bots))])
			}
		case 11: // channel overwrite
			if len(roles) > 0 {
				p.SetOverwrite(randUser(), channels[rng.Intn(len(channels))], Overwrite{
					Kind: OverwriteRole, TargetID: roles[rng.Intn(len(roles))],
					Allow: randPerms() &^ permissions.Administrator,
					Deny:  randPerms() &^ permissions.Administrator,
				})
			}
		}
		checkInvariants(t, p, g, step)
		if t.Failed() {
			t.Fatalf("invariant broken at step %d (seed run)", step)
		}
	}
}

func checkInvariants(t *testing.T, p *Platform, g *Guild, step int) {
	t.Helper()
	// Owner is always a member.
	if _, ok := g.Members[g.OwnerID]; !ok {
		t.Errorf("step %d: owner lost membership", step)
	}
	// Banned users are never members.
	for id := range g.Banned {
		if _, ok := g.Members[id]; ok {
			t.Errorf("step %d: banned user %s is a member", step, id)
		}
	}
	// @everyone exists at position 0 and was never granted admin.
	ev := g.Roles[g.EveryoneRoleID()]
	if ev == nil || ev.Position != 0 {
		t.Errorf("step %d: everyone role corrupted", step)
	}
	for _, m := range g.Members {
		seen := make(map[ID]bool)
		for _, rid := range m.RoleIDs {
			// Held roles exist…
			if _, ok := g.Roles[rid]; !ok {
				t.Errorf("step %d: member %s holds deleted role %s", step, m.UserID, rid)
			}
			// …and are not duplicated.
			if seen[rid] {
				t.Errorf("step %d: member %s holds duplicate role %s", step, m.UserID, rid)
			}
			seen[rid] = true
		}
	}
	// Role positions: nothing below @everyone; managed roles belong to
	// current bot members only.
	for _, r := range g.Roles {
		if r.ID != g.EveryoneRoleID() && r.Position <= 0 {
			t.Errorf("step %d: role %s at position %d", step, r.Name, r.Position)
		}
	}
	// Owner's effective permissions are always everything.
	perms, err := p.Permissions(g.ID, g.OwnerID)
	if err != nil || perms != permissions.All {
		t.Errorf("step %d: owner perms = %s, %v", step, perms, err)
	}
	// Every message in every channel has a positive ID and a known author
	// account (the author may have since left the guild, but the account
	// must exist).
	for _, ch := range g.Channels {
		msgs, err := p.ChannelMessages(ch.ID)
		if err != nil {
			t.Errorf("step %d: channel %s: %v", step, ch.ID, err)
		}
		for _, msg := range msgs {
			if msg.ID == Nil {
				t.Errorf("step %d: message without ID", step)
			}
			if _, err := p.UserByID(msg.AuthorID); err != nil {
				t.Errorf("step %d: message by unknown account %s", step, msg.AuthorID)
			}
		}
	}
}
