//! Stream events.

use fstore_common::{EntityKey, Timestamp, Value};

/// One raw event on a stream: an entity, the instant it happened, and a
/// value (e.g. a trip fare, a click, a rating).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub entity: EntityKey,
    pub event_time: Timestamp,
    pub(crate) value: Value,
}

impl Event {
    pub fn new(
        entity: impl Into<EntityKey>,
        event_time: Timestamp,
        value: impl Into<Value>,
    ) -> Self {
        Event {
            entity: entity.into(),
            event_time,
            value: value.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_coerces() {
        let e = Event::new("u1", Timestamp::millis(5), 3.5);
        assert_eq!(e.entity.as_str(), "u1");
        assert_eq!(e.value, Value::Float(3.5));
    }
}
