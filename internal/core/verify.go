package core

import (
	"achilles/internal/types"
)

// verifyViewCert checks a view certificate's signature host-side (our
// own certificates need no re-verification).
func (r *Replica) verifyViewCert(vc *types.ViewCert) bool {
	if vc.Signer == r.cfg.Self {
		return true
	}
	if r.svc.Verify(vc.Signer, types.ViewCertPayload(vc.PrepHash, vc.PrepView, vc.PrepHeight, vc.CurView), vc.Sig) {
		return true
	}
	r.m.badViewCerts.Inc()
	return false
}
