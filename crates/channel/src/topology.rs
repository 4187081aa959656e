//! Conference-room topologies and SNR bands.
//!
//! Reproduces the paper's testbed methodology (Fig. 5, §10c, §11): a dense
//! indoor room with candidate AP locations on ledges around the perimeter
//! and candidate client locations scattered through the floor; "in every
//! run, the APs and clients are assigned randomly to these locations", and
//! runs are bucketed by the clients' effective SNR into low (6–12 dB),
//! medium (12–18 dB) and high (>18 dB) bands.

use jmb_dsp::rng::JmbRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// x coordinate, metres.
    pub x: f64,
    /// y coordinate, metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub(crate) fn distance(&self, other: &Position) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// The paper's three effective-SNR evaluation bands (§11.1c, §11.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnrBand {
    /// 6–12 dB.
    Low,
    /// 12–18 dB.
    Medium,
    /// Above 18 dB (we cap draws at 25 dB, the top of 802.11's
    /// operational range per §11.4).
    High,
}

impl SnrBand {
    /// The band's dB range `(lo, hi)`.
    fn range_db(self) -> (f64, f64) {
        match self {
            SnrBand::Low => (6.0, 12.0),
            SnrBand::Medium => (12.0, 18.0),
            SnrBand::High => (18.0, 25.0),
        }
    }

    /// Draws a target SNR uniformly within the band.
    pub fn sample_db(self, rng: &mut JmbRng) -> f64 {
        let (lo, hi) = self.range_db();
        lo + rng.gen::<f64>() * (hi - lo)
    }

    /// `true` if `snr_db` falls inside this band.
    pub fn contains(self, snr_db: f64) -> bool {
        let (lo, hi) = self.range_db();
        (lo..=hi).contains(&snr_db)
    }

    /// All three bands, for sweep loops.
    pub const ALL: [SnrBand; 3] = [SnrBand::Low, SnrBand::Medium, SnrBand::High];
}

impl std::fmt::Display for SnrBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnrBand::Low => write!(f, "low (6-12 dB)"),
            SnrBand::Medium => write!(f, "medium (12-18 dB)"),
            SnrBand::High => write!(f, "high (>18 dB)"),
        }
    }
}

/// The room with its candidate locations (paper Fig. 5).
#[derive(Debug, Clone)]
pub struct Room {
    /// Room width, metres.
    pub width: f64,
    /// Room depth, metres.
    pub depth: f64,
    /// Candidate AP locations ("APs deployed on ledges near the ceiling").
    pub ap_slots: Vec<Position>,
    /// Candidate client locations ("clients scattered through the room").
    pub client_slots: Vec<Position>,
}

impl Room {
    /// A conference room matching the paper's scale: 20 AP slots around the
    /// perimeter, a 6×5 grid of 30 client slots (jittered), 18 m × 12 m.
    pub fn conference() -> Self {
        let width = 18.0;
        let depth = 12.0;
        let mut ap_slots = Vec::new();
        // Perimeter ledges: 7 slots along each long wall, 3 along each short.
        for i in 0..7 {
            let x = 1.5 + i as f64 * (width - 3.0) / 6.0;
            ap_slots.push(Position::new(x, 0.3));
            ap_slots.push(Position::new(x, depth - 0.3));
        }
        for i in 0..3 {
            let y = 2.0 + i as f64 * (depth - 4.0) / 2.0;
            ap_slots.push(Position::new(0.3, y));
            ap_slots.push(Position::new(width - 0.3, y));
        }
        // Client grid on the floor.
        let mut client_slots = Vec::new();
        for i in 0..6 {
            for j in 0..5 {
                let x = 2.0 + i as f64 * (width - 4.0) / 5.0;
                let y = 1.5 + j as f64 * (depth - 3.0) / 4.0;
                client_slots.push(Position::new(x, y));
            }
        }
        Room {
            width,
            depth,
            ap_slots,
            client_slots,
        }
    }
}

/// One placement draw: which slots this run's APs and clients occupy.
#[derive(Debug, Clone)]
pub struct Topology {
    /// AP positions (index = AP id).
    pub aps: Vec<Position>,
    /// Client positions (index = client id).
    pub clients: Vec<Position>,
}

impl Topology {
    /// Randomly assigns `n_aps` APs and `n_clients` clients to distinct
    /// slots of `room`, as the paper does per run.
    ///
    /// # Panics
    ///
    /// Panics if the room has fewer slots than requested.
    pub fn draw(room: &Room, n_aps: usize, n_clients: usize, rng: &mut JmbRng) -> Self {
        assert!(
            n_aps <= room.ap_slots.len(),
            "room has {} AP slots, need {n_aps}",
            room.ap_slots.len()
        );
        assert!(
            n_clients <= room.client_slots.len(),
            "room has {} client slots, need {n_clients}",
            room.client_slots.len()
        );
        let mut ap_idx: Vec<usize> = (0..room.ap_slots.len()).collect();
        ap_idx.shuffle(rng);
        let mut cl_idx: Vec<usize> = (0..room.client_slots.len()).collect();
        cl_idx.shuffle(rng);
        Topology {
            aps: ap_idx[..n_aps].iter().map(|&i| room.ap_slots[i]).collect(),
            clients: cl_idx[..n_clients]
                .iter()
                .map(|&i| room.client_slots[i])
                .collect(),
        }
    }

    /// Distance matrix `d[client][ap]`.
    pub fn distances(&self) -> Vec<Vec<f64>> {
        self.clients
            .iter()
            .map(|c| self.aps.iter().map(|a| c.distance(a)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::rng_from_seed;

    #[test]
    fn conference_room_capacity() {
        let room = Room::conference();
        assert_eq!(room.ap_slots.len(), 20);
        assert_eq!(room.client_slots.len(), 30);
        // All slots inside the room.
        for p in room.ap_slots.iter().chain(&room.client_slots) {
            assert!(p.x >= 0.0 && p.x <= room.width);
            assert!(p.y >= 0.0 && p.y <= room.depth);
        }
    }

    #[test]
    fn aps_on_perimeter_clients_inside() {
        let room = Room::conference();
        for p in &room.ap_slots {
            let near_wall =
                p.x < 1.0 || p.x > room.width - 1.0 || p.y < 1.0 || p.y > room.depth - 1.0;
            assert!(near_wall, "AP slot {p:?} not on perimeter");
        }
        for p in &room.client_slots {
            assert!(p.x >= 1.0 && p.x <= room.width - 1.0);
        }
    }

    #[test]
    fn draw_uses_distinct_slots() {
        let room = Room::conference();
        let mut rng = rng_from_seed(1);
        let topo = Topology::draw(&room, 10, 10, &mut rng);
        assert_eq!(topo.aps.len(), 10);
        assert_eq!(topo.clients.len(), 10);
        for i in 0..10 {
            for j in i + 1..10 {
                assert!(topo.aps[i].distance(&topo.aps[j]) > 1e-9);
                assert!(topo.clients[i].distance(&topo.clients[j]) > 1e-9);
            }
        }
    }

    #[test]
    fn draws_vary_with_seed() {
        let room = Room::conference();
        let a = Topology::draw(&room, 4, 4, &mut rng_from_seed(1));
        let b = Topology::draw(&room, 4, 4, &mut rng_from_seed(2));
        let same = a
            .aps
            .iter()
            .zip(&b.aps)
            .filter(|(x, y)| x.distance(y) < 1e-9)
            .count();
        assert!(same < 4, "different seeds gave identical AP draws");
    }

    #[test]
    fn draw_reproducible() {
        let room = Room::conference();
        let a = Topology::draw(&room, 6, 6, &mut rng_from_seed(9));
        let b = Topology::draw(&room, 6, 6, &mut rng_from_seed(9));
        for (x, y) in a.aps.iter().zip(&b.aps) {
            assert_eq!(x, y);
        }
    }

    #[test]
    #[should_panic(expected = "AP slots")]
    fn overdraw_panics() {
        let room = Room::conference();
        Topology::draw(&room, 21, 1, &mut rng_from_seed(1));
    }

    #[test]
    fn distance_matrices() {
        let topo = Topology {
            aps: vec![Position::new(0.0, 0.0), Position::new(3.0, 4.0)],
            clients: vec![Position::new(0.0, 0.0)],
        };
        let d = topo.distances();
        assert_eq!(d.len(), 1);
        assert!((d[0][0] - 0.0).abs() < 1e-12);
        assert!((d[0][1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn snr_bands() {
        assert!(SnrBand::Low.contains(8.0));
        assert!(!SnrBand::Low.contains(13.0));
        assert!(SnrBand::High.contains(22.0));
        let mut rng = rng_from_seed(3);
        for band in SnrBand::ALL {
            for _ in 0..100 {
                let s = band.sample_db(&mut rng);
                assert!(band.contains(s), "{band}: {s}");
            }
        }
    }

    #[test]
    fn band_display() {
        assert_eq!(SnrBand::High.to_string(), "high (>18 dB)");
    }
}
