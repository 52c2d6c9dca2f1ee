//! Property tests over the split virtqueue: arbitrary chain schedules must
//! preserve FIFO completion order, never leak descriptors, and deliver
//! buffer contents intact.

use pim_virtio::queue::{DeviceQueue, DriverQueue, QueueLayout};
use pim_virtio::{Gpa, GuestMemory};
use proptest::prelude::*;

fn setup(size: u16) -> (GuestMemory, DriverQueue, DeviceQueue) {
    let mem = GuestMemory::new(4 << 20);
    let layout = QueueLayout::alloc(&mem, size).unwrap();
    let driver = DriverQueue::new(mem.clone(), layout.clone());
    let device = DeviceQueue::new(mem.clone(), layout);
    (mem, driver, device)
}

proptest! {
    /// Any schedule of add/process rounds preserves order and recycles all
    /// descriptors.
    #[test]
    fn fifo_order_and_descriptor_conservation(
        rounds in proptest::collection::vec(
            (1usize..4, proptest::collection::vec(1u32..4096, 1..4)),
            1..24,
        )
    ) {
        let (mem, mut driver, mut device) = setup(64);
        let pages = mem.alloc_pages(4).unwrap();
        for (chains, lens) in rounds {
            let mut heads = Vec::new();
            for _ in 0..chains {
                let bufs: Vec<(Gpa, u32, bool)> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, len)| (pages[i % 4], *len, i == lens.len() - 1))
                    .collect();
                match driver.add_chain(&bufs) {
                    Ok(h) => heads.push(h),
                    Err(pim_virtio::VirtioError::QueueFull) => break,
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
            // Device drains everything, in order.
            let mut seen = Vec::new();
            while let Some(chain) = device.pop().unwrap() {
                prop_assert_eq!(chain.descriptors.len(), lens.len());
                device.push_used(chain.head, 1).unwrap();
                seen.push(chain.head);
            }
            prop_assert_eq!(&seen, &heads);
            // Driver reaps in the same order and recovers every descriptor.
            for h in heads {
                let (got, _) = driver.poll_used().unwrap().unwrap();
                prop_assert_eq!(got, h);
            }
            prop_assert_eq!(driver.poll_used().unwrap(), None);
            prop_assert_eq!(driver.free_descriptors(), 64);
        }
    }

    /// Recycling never trusts guest memory: with several chains of different
    /// lengths in flight, completed out of submission order, and the guest
    /// scribbling over the `flags`/`next` fields of its in-flight
    /// descriptors before reaping, every descriptor comes back exactly once
    /// — a following chain that needs all of them is accepted and pops whole.
    #[test]
    fn recycling_survives_out_of_order_completion_and_scribbled_descriptors(
        chains in proptest::collection::vec((1usize..8, any::<u64>()), 2..8),
        junk in proptest::collection::vec(any::<u16>(), 2..9),
    ) {
        const SIZE: u16 = 64;
        let mem = GuestMemory::new(4 << 20);
        let layout = QueueLayout::alloc(&mem, SIZE).unwrap();
        let mut driver = DriverQueue::new(mem.clone(), layout.clone());
        let mut device = DeviceQueue::new(mem.clone(), layout.clone());
        let page = mem.alloc_pages(1).unwrap()[0];
        for round in 0..3 {
            for (len, _) in &chains {
                driver.add_chain(&vec![(page, 8, false); *len]).unwrap();
            }
            let in_flight: usize = chains.iter().map(|(len, _)| len).sum();
            prop_assert_eq!(usize::from(driver.free_descriptors()), usize::from(SIZE) - in_flight);
            let mut popped = Vec::new();
            while let Some(chain) = device.pop().unwrap() {
                popped.push(chain);
            }
            prop_assert_eq!(popped.len(), chains.len());
            // Complete in an order unrelated to submission.
            let mut order: Vec<usize> = (0..popped.len()).collect();
            order.sort_by_key(|&i| chains[(i + round) % chains.len()].1);
            for &i in &order {
                device.push_used(popped[i].head, 0).unwrap();
            }
            // The guest overwrites `flags` and `next` of every in-flight
            // descriptor (indices: the head, then each `next` the device saw).
            let mut junk = junk.iter().cycle();
            for chain in &popped {
                let mut idx = chain.head;
                for d in &chain.descriptors {
                    let record = layout.desc.add(16 * u64::from(idx));
                    mem.write_u16(record.add(12), *junk.next().unwrap()).unwrap();
                    mem.write_u16(record.add(14), *junk.next().unwrap()).unwrap();
                    idx = d.next;
                }
            }
            for &i in &order {
                let (head, _) = driver.poll_used().unwrap().unwrap();
                prop_assert_eq!(head, popped[i].head);
            }
            prop_assert_eq!(driver.free_descriptors(), SIZE);
            // Every descriptor is on the free list exactly once.
            let all = driver.add_chain(&vec![(page, 8, false); usize::from(SIZE)]).unwrap();
            let chain = device.pop().unwrap().unwrap();
            prop_assert_eq!(chain.descriptors.len(), usize::from(SIZE));
            device.push_used(all, 0).unwrap();
            prop_assert_eq!(driver.poll_used().unwrap(), Some((all, 0)));
        }
    }

    /// Payload bytes cross the queue intact for arbitrary contents.
    #[test]
    fn payload_integrity(payload in proptest::collection::vec(any::<u8>(), 1..4096)) {
        let (mem, mut driver, mut device) = setup(8);
        let page = mem.alloc_pages(1).unwrap()[0];
        mem.write(page, &payload).unwrap();
        driver.add_chain(&[(page, payload.len() as u32, false)]).unwrap();
        let chain = device.pop().unwrap().unwrap();
        let got = mem
            .with_slice(chain.descriptors[0].addr, payload.len() as u64, <[u8]>::to_vec)
            .unwrap();
        prop_assert_eq!(got, payload);
        device.push_used(chain.head, 0).unwrap();
        driver.poll_used().unwrap().unwrap();
    }
}

#[test]
fn interleaved_producer_consumer() {
    // Add and drain interleaved (not in lockstep rounds) for many cycles.
    let (mem, mut driver, mut device) = setup(16);
    let page = mem.alloc_pages(1).unwrap()[0];
    let mut outstanding = std::collections::VecDeque::new();
    for step in 0u32..5000 {
        // Add up to 2 chains if room.
        for _ in 0..(step % 3) {
            if let Ok(h) = driver.add_chain(&[(page, 16, false)]) {
                outstanding.push_back(h);
            }
        }
        // Drain one.
        if let Some(chain) = device.pop().unwrap() {
            device.push_used(chain.head, 0).unwrap();
            let (h, _) = driver.poll_used().unwrap().unwrap();
            assert_eq!(Some(h), outstanding.pop_front());
        }
    }
    // Drain the tail.
    while let Some(chain) = device.pop().unwrap() {
        device.push_used(chain.head, 0).unwrap();
        let (h, _) = driver.poll_used().unwrap().unwrap();
        assert_eq!(Some(h), outstanding.pop_front());
    }
    assert!(outstanding.is_empty());
    assert_eq!(driver.free_descriptors(), 16);
}
