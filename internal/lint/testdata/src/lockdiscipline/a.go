// Fixtures for the lockdiscipline analyzer: channel sends under a held
// mutex, and the send after the unlock that must pass.
package lockdiscipline

import "sync"

func sendLocked(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want "sends on a channel while holding mu"
	mu.Unlock()
}

func sendAfterUnlock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	v := 1
	mu.Unlock()
	ch <- v
}

func sendDeferLocked(mu *sync.RWMutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	ch <- 2 // want "sends on a channel while holding mu"
}

func sendReadLocked(mu *sync.RWMutex, ch chan int) {
	mu.RLock()
	ch <- 3 // want "sends on a channel while holding mu"
	mu.RUnlock()
}
