package models

import (
	"context"
	"strings"
	"testing"
)

func TestACLDefaultsPublicRead(t *testing.T) {
	db, mgr := setup(t, 2)
	_ = db
	if err := mgr.Deploy(context.Background(), "m", "alice", "", kmeansModel()); err != nil {
		t.Fatal(err)
	}
	// Any user can read by default.
	if _, _, err := mgr.LoadAs("m", -1, "bob"); err != nil {
		t.Fatalf("default public read: %v", err)
	}
	// But not modify.
	if err := mgr.DropAs(context.Background(), "m", "bob"); err == nil {
		t.Fatal("non-owner drop should fail")
	}
	// Owner can always modify.
	if err := mgr.DropAs(context.Background(), "m", "alice"); err != nil {
		t.Fatalf("owner drop: %v", err)
	}
}

func TestACLRestrictAndGrant(t *testing.T) {
	_, mgr := setup(t, 2)
	_ = mgr.Deploy(context.Background(), "m", "alice", "", kmeansModel())
	if err := mgr.Restrict("m", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.LoadAs("m", -1, "bob"); err == nil {
		t.Fatal("restricted model should refuse bob")
	}
	// Grant read.
	if err := mgr.Grant(context.Background(), "m", "alice", "bob", PermRead); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.LoadAs("m", -1, "bob"); err != nil {
		t.Fatalf("granted read: %v", err)
	}
	if err := mgr.DropAs(context.Background(), "m", "bob"); err == nil {
		t.Fatal("read grant must not allow drop")
	}
	// Upgrade to modify.
	if err := mgr.Grant(context.Background(), "m", "alice", "bob", PermModify); err != nil {
		t.Fatal(err)
	}
	if err := mgr.DropAs(context.Background(), "m", "bob"); err != nil {
		t.Fatalf("modify grant should allow drop: %v", err)
	}
}

func TestACLRevoke(t *testing.T) {
	_, mgr := setup(t, 2)
	_ = mgr.Deploy(context.Background(), "m", "alice", "", kmeansModel())
	_ = mgr.Restrict("m", "alice")
	_ = mgr.Grant(context.Background(), "m", "alice", "bob", PermRead)
	if err := mgr.Revoke("m", "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.LoadAs("m", -1, "bob"); err == nil {
		t.Fatal("revoked user should be refused")
	}
}

func TestACLOnlyOwnerAdministers(t *testing.T) {
	_, mgr := setup(t, 2)
	_ = mgr.Deploy(context.Background(), "m", "alice", "", kmeansModel())
	if err := mgr.Grant(context.Background(), "m", "mallory", "mallory", PermModify); err == nil {
		t.Fatal("non-owner grant should fail")
	}
	if err := mgr.Restrict("m", "mallory"); err == nil {
		t.Fatal("non-owner restrict should fail")
	}
	if err := mgr.Revoke("m", "mallory", "bob"); err == nil {
		t.Fatal("non-owner revoke should fail")
	}
	if err := mgr.Grant(context.Background(), "missing", "alice", "bob", PermRead); err == nil {
		t.Fatal("grant on missing model should fail")
	}
}

func TestACLEnforcedInPredictionSQL(t *testing.T) {
	db, mgr := setup(t, 2)
	loadPointsTable(t, db, 20)
	_ = mgr.Deploy(context.Background(), "km", "alice", "", kmeansModel())
	_ = mgr.Restrict("km", "alice")

	// Unauthorized user is refused by the prediction UDF.
	_, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km', user='bob') OVER (PARTITION BEST) FROM pts`)
	if err == nil || !strings.Contains(err.Error(), "READ") {
		t.Fatalf("expected permission error, got %v", err)
	}
	// The owner succeeds.
	res, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km', user='alice') OVER (PARTITION BEST) FROM pts`)
	if err != nil || res.Len() != 20 {
		t.Fatalf("owner prediction: %v", err)
	}
	// After a grant, bob succeeds too.
	_ = mgr.Grant(context.Background(), "km", "alice", "bob", PermRead)
	res, err = db.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km', user='bob') OVER (PARTITION BEST) FROM pts`)
	if err != nil || res.Len() != 20 {
		t.Fatalf("granted prediction: %v", err)
	}
	// Queries without a user parameter remain administrative (internal).
	if _, err := db.QueryContext(context.Background(), `SELECT KmeansPredict(a, b USING PARAMETERS model='km') OVER (PARTITION BEST) FROM pts`); err != nil {
		t.Fatalf("administrative prediction: %v", err)
	}
}

func TestPermissionString(t *testing.T) {
	if PermRead.String() != "READ" || PermModify.String() != "MODIFY" {
		t.Fatal("permission names")
	}
}
