// Package api is the wire contract of the serving tier: the JSON bodies
// tcserve and tcrouter exchange with their clients and with each other.
package api
