package harness

import (
	"aire/internal/apps/askbot"
	"aire/internal/apps/dpaste"
	"aire/internal/apps/oauthsvc"
	"aire/internal/apps/spreadsheet"
	"aire/internal/vdb"
	"aire/internal/warp"
	"aire/internal/wire"
)

// Store-key helpers for scenario verification.

func configKey(id string) vdb.Key   { return vdb.Key{Model: oauthsvc.ModelConfig, ID: id} }
func userKey(id string) vdb.Key     { return vdb.Key{Model: askbot.ModelUser, ID: id} }
func questionKey(id string) vdb.Key { return vdb.Key{Model: askbot.ModelQuestion, ID: id} }
func snippetKey(id string) vdb.Key  { return vdb.Key{Model: dpaste.ModelSnippet, ID: id} }
func aclKey(id string) vdb.Key      { return vdb.Key{Model: spreadsheet.ModelACL, ID: id} }

func cancelAction(reqID string) warp.Action {
	return warp.Action{Kind: warp.CancelReq, ReqID: reqID}
}

func setCell(cell, value, user, token string) wire.Request {
	return wire.NewRequest("POST", "/set").
		WithForm("cell", cell, "value", value, "user", user).
		WithHeader("X-User-Token", token)
}

func getCell(cell string) wire.Request {
	return wire.NewRequest("GET", "/get").WithForm("cell", cell)
}

// newSheet builds a spreadsheet app instance for harness tests.
func newSheet(name string) *spreadsheet.App {
	return spreadsheet.New(name, BootstrapToken)
}
