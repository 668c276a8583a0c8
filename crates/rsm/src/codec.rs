//! Canonical binary encoding for replica wire traffic.
//!
//! [`RsmMessage`] wraps any ordering-layer message type that itself
//! implements [`WireCodec`], so a replica stack runs over the same
//! framed TCP transport as the bare protocols. Conventions follow
//! `sintra-protocols`: 1-byte discriminants in declaration order,
//! `u64` big-endian integers, `u32`-length-prefixed byte fields capped
//! at [`MAX_PAYLOAD`], crypto objects in their canonical encodings.

use crate::replica::RsmMessage;
use crate::shard_router::{ShardMessage, MAX_SHARDS};
use sintra_crypto::tsig::{SignatureShare, ThresholdSignature};

pub use sintra_net::codec::{CodecError, Reader, WireCodec, MAX_FRAME, MAX_PAYLOAD};

/// Most tail entries a decoded `State` message may carry; matches the
/// serving-side cap with slack so honest responses always decode.
const TAIL_DECODE_CAP: usize = 4096;

/// Most dedup-window entries a decoded `State` message may carry. The
/// honest window is `abc::DEDUP_ROUNDS` rounds of deliveries (at most
/// one per party per round), far below this.
const DEDUP_DECODE_CAP: usize = 16384;

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(bytes);
}

/// Encoded length of an [`RsmMessage::State`] with these parts, so a
/// responder can tell that a transfer fits a frame before serialising
/// the snapshot.
pub(crate) fn state_len(
    snapshot_len: usize,
    dedup_entries: usize,
    cert: &ThresholdSignature,
    tail_payload_lens: impl Iterator<Item = usize>,
) -> usize {
    let tail: usize = tail_payload_lens.map(|p| 8 + 8 + 32 + 4 + p).sum();
    1 + 3 * 8 + 4 + snapshot_len + 4 + dedup_entries * 40 + cert.size_bytes() + 4 + tail
}

impl<M: WireCodec> WireCodec for RsmMessage<M> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            RsmMessage::Order(m) => {
                buf.push(0);
                m.encode_into(buf);
            }
            RsmMessage::CkptShare {
                seq,
                round,
                digest,
                share,
            } => {
                buf.push(1);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(&round.to_be_bytes());
                buf.extend_from_slice(digest);
                share.encode_into(buf);
            }
            RsmMessage::FetchState { have_seq } => {
                buf.push(2);
                buf.extend_from_slice(&have_seq.to_be_bytes());
            }
            RsmMessage::State {
                seq,
                round,
                next_round,
                snapshot,
                dedup,
                cert,
                tail,
            } => {
                buf.push(3);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(&round.to_be_bytes());
                buf.extend_from_slice(&next_round.to_be_bytes());
                put_bytes(buf, snapshot);
                buf.extend_from_slice(&(dedup.len() as u32).to_be_bytes());
                for (r, d) in dedup {
                    buf.extend_from_slice(&r.to_be_bytes());
                    buf.extend_from_slice(d);
                }
                cert.encode_into(buf);
                buf.extend_from_slice(&(tail.len() as u32).to_be_bytes());
                for (s, r, td, payload) in tail {
                    buf.extend_from_slice(&s.to_be_bytes());
                    buf.extend_from_slice(&r.to_be_bytes());
                    buf.extend_from_slice(td);
                    put_bytes(buf, payload);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(RsmMessage::Order(M::decode(r)?)),
            1 => Ok(RsmMessage::CkptShare {
                seq: r.u64()?,
                round: r.u64()?,
                digest: r.array::<32>()?,
                share: SignatureShare::decode(r)?,
            }),
            2 => Ok(RsmMessage::FetchState { have_seq: r.u64()? }),
            3 => {
                let seq = r.u64()?;
                let round = r.u64()?;
                let next_round = r.u64()?;
                let snapshot = r.bytes("rsm snapshot", MAX_PAYLOAD)?;
                let dedup_count = r.u32()? as usize;
                if dedup_count > DEDUP_DECODE_CAP {
                    return Err(CodecError::Oversized {
                        what: "rsm state dedup window",
                        len: dedup_count,
                        max: DEDUP_DECODE_CAP,
                    });
                }
                let mut dedup = Vec::with_capacity(dedup_count.min(1024));
                for _ in 0..dedup_count {
                    let rr = r.u64()?;
                    let d = r.array::<32>()?;
                    dedup.push((rr, d));
                }
                let cert = ThresholdSignature::decode(r)?;
                let count = r.u32()? as usize;
                if count > TAIL_DECODE_CAP {
                    return Err(CodecError::Oversized {
                        what: "rsm state tail",
                        len: count,
                        max: TAIL_DECODE_CAP,
                    });
                }
                let mut tail = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let s = r.u64()?;
                    let rr = r.u64()?;
                    let td = r.array::<32>()?;
                    let payload = r.bytes("rsm tail payload", MAX_PAYLOAD)?;
                    tail.push((s, rr, td, payload));
                }
                Ok(RsmMessage::State {
                    seq,
                    round,
                    next_round,
                    snapshot,
                    dedup,
                    cert,
                    tail,
                })
            }
            value => Err(CodecError::BadDiscriminant {
                what: "RsmMessage",
                value,
            }),
        }
    }
}

impl<M: WireCodec> WireCodec for ShardMessage<M> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.shard.to_be_bytes());
        self.msg.encode_into(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let shard = r.u32()?;
        if shard as usize >= MAX_SHARDS {
            return Err(CodecError::Oversized {
                what: "shard id",
                len: shard as usize,
                max: MAX_SHARDS - 1,
            });
        }
        Ok(ShardMessage {
            shard,
            msg: RsmMessage::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_adversary::structure::TrustStructure;
    use sintra_crypto::dealer::Dealer;
    use sintra_crypto::rng::SeededRng;
    use sintra_crypto::tsig::QuorumRule;
    use sintra_protocols::rbc::RbcMessage;

    fn sample_crypto() -> (SignatureShare, ThresholdSignature) {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let mut rng = SeededRng::new(77);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        let shares: Vec<SignatureShare> = bundles
            .iter()
            .map(|b| b.signing_key().sign_share(b"m", &mut rng))
            .collect();
        let cert = public
            .signing()
            .combine(b"m", &shares, QuorumRule::Qualified)
            .unwrap();
        (shares[0], cert)
    }

    fn roundtrip(msg: &RsmMessage<RbcMessage>) {
        let bytes = msg.encode();
        if let RsmMessage::State {
            snapshot,
            dedup,
            cert,
            tail,
            ..
        } = msg
        {
            let predicted = state_len(
                snapshot.len(),
                dedup.len(),
                cert,
                tail.iter().map(|e| e.3.len()),
            );
            assert_eq!(predicted, bytes.len(), "state_len matches the encoder");
        }
        let decoded = RsmMessage::<RbcMessage>::decode_exact(&bytes).unwrap();
        assert_eq!(bytes, decoded.encode(), "canonical re-encode");
    }

    #[test]
    fn all_variants_roundtrip() {
        let (share, cert) = sample_crypto();
        roundtrip(&RsmMessage::Order(RbcMessage::Send(b"payload".to_vec())));
        roundtrip(&RsmMessage::CkptShare {
            seq: 42,
            round: 7,
            digest: [9u8; 32],
            share,
        });
        roundtrip(&RsmMessage::FetchState { have_seq: 17 });
        roundtrip(&RsmMessage::State {
            seq: 64,
            round: 15,
            next_round: 18,
            snapshot: vec![1, 2, 3, 4],
            dedup: vec![(14, [3u8; 32]), (15, [4u8; 32])],
            cert,
            tail: vec![
                (64, 16, [5u8; 32], b"a".to_vec()),
                (65, 16, [6u8; 32], b"bb".to_vec()),
            ],
        });
    }

    #[test]
    fn truncation_and_bad_discriminant_rejected() {
        let (share, cert) = sample_crypto();
        let msg = RsmMessage::<RbcMessage>::State {
            seq: 1,
            round: 1,
            next_round: 2,
            snapshot: vec![5; 16],
            dedup: vec![(1, [2u8; 32])],
            cert,
            tail: vec![(1, 1, [8u8; 32], vec![7; 8])],
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                RsmMessage::<RbcMessage>::decode_exact(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(RsmMessage::<RbcMessage>::decode_exact(&[200]).is_err());
        let _ = share;
    }

    #[test]
    fn oversized_tail_count_rejected() {
        // A forged count larger than the cap is rejected before any
        // allocation proportional to it.
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&2u64.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes()); // empty snapshot
        bytes.extend_from_slice(&0u32.to_be_bytes()); // empty dedup window
        let (_, cert) = sample_crypto();
        cert.encode_into(&mut bytes);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            RsmMessage::<RbcMessage>::decode_exact(&bytes),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn shard_envelope_roundtrips_and_caps_shard_id() {
        let msg = ShardMessage {
            shard: 3,
            msg: RsmMessage::<RbcMessage>::FetchState { have_seq: 9 },
        };
        let bytes = msg.encode();
        let decoded = ShardMessage::<RbcMessage>::decode_exact(&bytes).unwrap();
        assert_eq!(decoded.shard, 3);
        assert_eq!(bytes, decoded.encode(), "canonical re-encode");
        for cut in 0..bytes.len() {
            assert!(ShardMessage::<RbcMessage>::decode_exact(&bytes[..cut]).is_err());
        }
        // A forged out-of-range shard id is rejected at decode.
        let mut forged = (MAX_SHARDS as u32).to_be_bytes().to_vec();
        forged.extend_from_slice(&RsmMessage::<RbcMessage>::FetchState { have_seq: 9 }.encode());
        assert!(matches!(
            ShardMessage::<RbcMessage>::decode_exact(&forged),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_dedup_count_rejected() {
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&2u64.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes()); // empty snapshot
        bytes.extend_from_slice(&u32::MAX.to_be_bytes()); // forged dedup count
        assert!(matches!(
            RsmMessage::<RbcMessage>::decode_exact(&bytes),
            Err(CodecError::Oversized { .. })
        ));
    }
}
