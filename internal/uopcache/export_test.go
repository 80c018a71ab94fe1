package uopcache

// PublishEvery exposes the mid-run publish interval to the external tests.
const PublishEvery = publishEvery
