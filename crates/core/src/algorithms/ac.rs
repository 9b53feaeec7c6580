use crate::{CommMatrix, Schedule, ScheduleKind, SchedulerKind};

/// Asynchronous communication (Section 3).
///
/// AC performs no scheduling at all: the runtime layer makes every node
/// pre-post its receives, blast all its sends, and confirm arrivals. The
/// returned [`Schedule`] therefore has [`ScheduleKind::Async`], no phases,
/// and zero scheduling cost — its value is that the same
/// `(matrix, schedule)` pipeline runs all four algorithms uniformly.
///
/// # Example
///
/// ```
/// use commsched::{ac, CommMatrix, ScheduleKind};
///
/// let mut com = CommMatrix::new(8);
/// com.set(1, 2, 512);
/// let s = ac(&com);
/// assert_eq!(s.kind(), ScheduleKind::Async);
/// assert_eq!(s.num_phases(), 0);
/// assert_eq!(s.ops(), 0);
/// ```
pub fn ac(com: &CommMatrix) -> Schedule {
    Schedule::from_parts(
        ScheduleKind::Async,
        SchedulerKind::Ac,
        com.n(),
        Vec::new(),
        0,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_schedule;

    #[test]
    fn ac_is_schedule_free() {
        let mut com = CommMatrix::new(4);
        com.set(0, 1, 10);
        com.set(2, 3, 10);
        let s = ac(&com);
        assert_eq!(s.kind(), ScheduleKind::Async);
        assert_eq!(s.algorithm(), SchedulerKind::Ac);
        assert_eq!(s.num_phases(), 0);
        validate_schedule(&com, &s).unwrap();
    }
}
